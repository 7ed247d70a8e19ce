"""The stochastic LLG Heun step written out in NumPy: the bit contract of
`dynamics.GridHeun` and of the scalar loop `dynamics._crossing` behind
`dynamics.t0_crossing_step` and `dynamics.switch_times`; and the
critical-current bisection by steps alone: the bit contract of
`dynamics.critical_spin_current`.

The program steps magnets only through `GridHeun` and that one scalar
loop. This module is their written spec: each element of a `GridHeun`
step, and each scalar of a `_crossing` step, at any thermal field, goes
through the floating-point operations of `heun_step` and `drift` below in
the same order, so the bit-identity tests compare them with this step,
never with themselves. Likewise `critical_spin_current`, which lets the
closed form decide its far probes, must return the value of
`critical_spin_current` below, which runs `t0_crossing_step` at every
probe.
"""

import math

import numpy as np

from spincnn.constants import GAMMA, MU0
from spincnn.core import MagnetParams
from spincnn.dynamics import (CRITICAL_REL_TOL, analytic_critical_current,
                              t0_crossing_step)


def effective_field(m: np.ndarray, p, thermal: np.ndarray) -> np.ndarray:
    """Uniaxial easy-axis field (0, 0, Hk m_z) plus the thermal sample."""
    m = np.asarray(m, dtype=float)
    H = np.array(thermal, dtype=float, copy=True)
    H[..., 2] += p.Hk * m[..., 2]
    return H


def drift(m: np.ndarray, H: np.ndarray, torque_z, alpha: float) -> np.ndarray:
    """Explicit dm/dt for magnetization(s) m under total field H [A/m].

    Works on any (..., 3) shape; torque_z may be scalar or broadcastable to
    the leading shape. The implicit Gilbert term is solved algebraically:
    D = [G + alpha (m x G) + alpha^2 (m.G) m] / (1 + alpha^2), G the
    precession plus the torque on z.
    """
    mx, my, mz = m[..., 0], m[..., 1], m[..., 2]
    hx, hy, hz = H[..., 0], H[..., 1], H[..., 2]
    c = -GAMMA * MU0
    gx = c * (my * hz - mz * hy)
    gy = c * (mz * hx - mx * hz)
    gz = c * (mx * hy - my * hx) + torque_z
    mdotg = mx * gx + my * gy + mz * gz
    a2 = alpha * alpha
    out = np.empty(np.broadcast(m, H).shape)
    out[..., 0] = gx + alpha * (my * gz - mz * gy) + a2 * mdotg * mx
    out[..., 1] = gy + alpha * (mz * gx - mx * gz) + a2 * mdotg * my
    out[..., 2] = gz + alpha * (mx * gy - my * gx) + a2 * mdotg * mz
    out /= 1.0 + a2
    return out


def heun_step(m: np.ndarray, p, torque_z, thermal: np.ndarray,
              dt: float) -> np.ndarray:
    """One renormalized Heun step; thermal sample shared by both stages."""
    d1 = drift(m, effective_field(m, p, thermal), torque_z, p.alpha)
    mp = m + dt * d1
    d2 = drift(mp, effective_field(mp, p, thermal), torque_z, p.alpha)
    out = m + 0.5 * dt * (d1 + d2)
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def critical_spin_current(p: MagnetParams, horizon: float = 50e-9,
                          dt: float = 1e-12) -> float:
    """Zero-temperature bisection for the minimal switching current [A]:
    the smallest anti-parallel current magnitude that `t0_crossing_step`
    takes below m_z = -0.5 within the horizon, to CRITICAL_REL_TOL."""
    below = math.nextafter(-0.5, -math.inf)  # m_z < -0.5 as m_z <= below
    estimate = analytic_critical_current(p)
    if not 0.0 < estimate < math.inf:
        raise ValueError(f"analytic critical-current estimate {estimate:.3g} A "
                         "is zero or not finite: no bisection bracket")
    lo, hi = 0.0, estimate
    while t0_crossing_step(p, -hi, below, horizon, dt) is None:
        hi *= 2.0
        if hi / estimate > 1e3:
            raise RuntimeError("critical-current bracket failure: "
                               f"{hi:.3e} A does not switch within {horizon} s")
        lo = hi / 2.0
    while hi - lo > CRITICAL_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if t0_crossing_step(p, -mid, below, horizon, dt) is None:
            lo = mid
        else:
            hi = mid
    return hi
