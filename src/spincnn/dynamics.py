"""Macrospin stochastic LLG integrator with spin-transfer torque.

The magnetization obeys

    dm/dt = -gamma mu0 (m x H_eff) + alpha (m x dm/dt) + I_s_perp / (q Ns)

with the spin current injected along +/-z. The implicit Gilbert term is
resolved algebraically: writing G for the explicit right-hand side
(precession plus torque), the unique solution of D = G + alpha m x D is

    D = [G + alpha (m x G) + alpha^2 (m.G) m] / (1 + alpha^2).

Time stepping is stochastic Heun (Stratonovich-consistent): one thermal
field sample per step, shared by predictor and corrector, followed by
renormalization of m.

Sign convention: positive spin current drives m_z toward +1.

`GridHeun` is the one vector Heun step: it steps a grid of magnets in
place. A single magnet is all NumPy dispatch there, ~36 us per step for
one magnet and ~41 us for 20, so the single-magnet paths share one scalar
unrolling of the same step, `_crossing`, at ~1.0 us per step at T = 0 and
~1.6 us with its thermal draw (Python 3.11, NumPy 2.4, 2 shared cores).
It has two callers: `t0_crossing_step`, the T = 0 probe of the
critical-current bisection and the switch-stats oracle, and
`switch_times`, one thermal realisation per seed. The bit contract of both
the grid and the scalar step is the NumPy step of tests/llg_reference.py:
every element goes through its floating-point operations in the same
order.

At T = 0 the uniaxial macrospin has an exact switching time,
`t0_switch_time` (J. Z. Sun, Phys. Rev. B 62, 570 (2000)); the step
crosses within 0.2 % of it at 1 ps. `critical_spin_current` takes the
outcome of its probes far from that time's threshold from the closed form
and steps only the probes near it, and it returns the value of the
bisection that steps every probe, bit for bit, or runs that bisection.
At T = 0, where +z is a fixed point, a run starts at the T0_TILT_DEG tilt,
and `switch_times` runs it once for all seeds.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import GAMMA, KB, MU0, Q
from .core import MAX_DT, MagnetParams, SimConfig, make_rng, STREAM_SWITCH

SWITCH_BLOCK = 256  # steps of a scalar run between draws and tilt checks
T0_TILT_DEG = 1.0  # start of the T = 0 probes off +z, a fixed point [deg]
CRITICAL_REL_TOL = 0.01  # bracket width of the critical-current bisection


def thermal_sigma(p: MagnetParams, cfg: SimConfig) -> float:
    """Per-component std dev of the thermal field sample [A/m] at the
    temperature T and step dt of `cfg`.

    Fluctuation-dissipation form sigma^2 = 2 alpha kB T / (mu0^2 gamma Ms V dt).
    """
    T = cfg.temperature
    if T == 0:
        return 0.0
    return math.sqrt(2.0 * p.alpha * KB * T
                     / (MU0 ** 2 * GAMMA * p.Ms * p.volume * cfg.dt))


def stt_rate(p: MagnetParams, Is: float) -> float:
    """Angular rate I_s / (q Ns) [rad/s] of the spin-torque term."""
    return Is / (Q * p.Ns)


def heun_step(m: np.ndarray, p: MagnetParams, torque_z, thermal: np.ndarray,
              dt: float) -> np.ndarray:
    """One Heun step of the magnet(s) m, (..., 3), by a one-step `GridHeun`.
    Only the perfbench micro-timings read it; it goes when ROADMAP item 1
    points them at `GridHeun.step`."""
    heun = GridHeun(np.reshape(m, (-1, 3)), p, dt)
    heun.torque.reshape(np.shape(m)[:-1])[...] = torque_z
    heun.noise[...] = np.reshape(thermal, (-1, 3))
    heun.step()
    return np.moveaxis(heun.m[:3], 0, -1).reshape(np.shape(m))


class GridHeun:
    """In-place Heun stepper for a grid of magnets, bit-identical to the
    reference step of tests/llg_reference.py. Every grid run steps on it,
    and so does the one-step `heun_step`; single magnets run in the scalar
    loop `_crossing` instead.

    State and fields live in cyclic component-first buffers of shape
    (5, *grid), rows x, y, z, x, y; the grid has at least one axis.
    Component k of a cross product a x b is then a[k+1] b[k+2] -
    a[k+2] b[k+1], so the whole product takes three ufunc calls on
    contiguous slices. Every call writes into a buffer.

    The stepper owns its inputs: `noise`, the thermal field sample in the
    draw layout (*grid, 3), and `torque`, the spin-torque rate of every
    magnet, (*grid). A caller writes them in place, and `step()` reads
    them. Every view that a step touches (row slices of the buffers, the
    component columns of `noise`) is bound once, here, so a step is a
    fixed sequence of ufunc calls on prebuilt views.

    Bit-identity contract: each element is computed by the expression tree
    of the reference `heun_step`, with no reassociation: hz = thz + Hk mz,
    g = c (m x H) (+ torque on z), m.g = (mx gx + my gy) + mz gz,
    d = ((g + alpha (m x g)) + (alpha^2 m.g) m) / (1 + alpha^2),
    m + (0.5 dt)(d1 + d2), and |m| = sqrt((x^2 + y^2) + z^2). Only
    commutations of a single + or * differ, and those are exact.
    """

    def __init__(self, m: np.ndarray, p: MagnetParams, dt: float):
        shape = m.shape[:-1]
        self.alpha, self.hk, self.dt = p.alpha, p.Hk, dt
        self.m, self.mp, self.h, self.g = (np.empty((5,) + shape) for _ in range(4))
        self.d1, self.d2, self.t = (np.empty((3,) + shape) for _ in range(3))
        self.s = np.empty(shape)
        self.noise = np.zeros(shape + (3,))
        self.torque = np.zeros(shape)
        self.m[:3] = np.moveaxis(m, -1, 0)
        self.m[3:] = self.m[:2]
        # the views of every operand, bound once: of a cyclic buffer x,
        # x[:3] is (x, y, z), x[1:4] is (y, z, x) and x[2:5] is (z, x, y)
        th, h, g, t = np.moveaxis(self.noise, -1, 0), self.h, self.g, self.t
        self._m, self._mp = ((x[2], x[:3], x[1:4], x[2:5], x[3:], x[:2])
                             for x in (self.m, self.mp))
        self._field = (h[2], h[1:4], h[2:5], th[2])
        self._g = (g[:3], g[2], g[1:4], g[2:5], g[3:], g[:2])
        self._t = (t, t[0], t[1], t[2])
        self._thermal_xy = (h[:2], h[3:], th[:2])
        self._d2 = (self.d2[0], self.d2[1], self.d2[2])

    def _drift(self, m, out: np.ndarray) -> None:
        """out = the reference `drift` of the state with bound views m under
        its effective field; h must already hold the thermal x, y rows."""
        mz, m3, m_yzx, m_zxy = m[:4]
        hz, h_yzx, h_zxy, thz = self._field
        g3, gz, g_yzx, g_zxy, g_tail, g_head = self._g
        t, tx, ty, tz = self._t
        s, alpha, a2 = self.s, self.alpha, self.alpha * self.alpha
        np.multiply(mz, self.hk, hz)
        hz += thz
        np.multiply(m_yzx, h_zxy, g3)          # g = c (m x H) + torque
        np.multiply(m_zxy, h_yzx, t)
        g3 -= t
        g3 *= -GAMMA * MU0
        gz += self.torque
        g_tail[...] = g_head
        np.multiply(m3, g3, t)                 # s = alpha^2 (m . g)
        np.add(tx, ty, s)
        s += tz
        s *= a2
        np.multiply(m_yzx, g_zxy, out)         # out = m x g
        np.multiply(m_zxy, g_yzx, t)
        out -= t
        out *= alpha
        out += g3
        np.multiply(s, m3, t)
        out += t
        out /= 1.0 + a2

    def step(self) -> None:
        """Advance every magnet one step under `noise` and `torque`."""
        m3, m_tail, m_head = self._m[1], self._m[4], self._m[5]
        mp3, mp_tail, mp_head = self._mp[1], self._mp[4], self._mp[5]
        h_head, h_tail, th_xy = self._thermal_xy
        d1, d2, s = self.d1, self.d2, self.s
        h_head[...] = th_xy
        h_tail[...] = h_head
        self._drift(self._m, d1)
        np.multiply(d1, self.dt, mp3)
        mp3 += m3
        mp_tail[...] = mp_head
        self._drift(self._mp, d2)
        d1 += d2
        d1 *= 0.5 * self.dt
        d1 += m3
        np.multiply(d1, d1, d2)                # |m| = sqrt((x^2 + y^2) + z^2)
        x2, y2, z2 = self._d2
        np.add(x2, y2, s)
        s += z2
        np.sqrt(s, s)
        np.divide(d1, s, m3)
        m_tail[...] = m_head


def analytic_critical_current(p: MagnetParams) -> float:
    """Small-angle damping/torque balance estimate alpha gamma mu0 Hk q Ns [A]."""
    return p.alpha * GAMMA * MU0 * p.Hk * Q * p.Ns


def _crossing(p: MagnetParams, Is: float, level: float, n_steps: int,
              dt: float, rng=None, sigma: float = 0.0) -> int | None:
    """First step n <= n_steps at which one magnet under Is has m_z <=
    level, or None: the scalar Heun step of both single-magnet paths.

    At sigma > 0 the run starts at +z, and each step takes the thermal
    sample rng.standard_normal(3) * sigma; samples come SWITCH_BLOCK steps
    at a time into a (SWITCH_BLOCK, 3) buffer, scaled in place and read as
    floats, and a generator yields one stream of normals, so one call for
    3 k values gives the bits of k calls for 3, in order. At sigma = 0, +z
    is a fixed point: the run starts T0_TILT_DEG off +z toward +x, and the
    tilt then only grows or only decays, so a tilt below 0.3 of its start
    while m_z > 0, checked after each block, ends it with None (from +z
    that floor is 0). Bit for bit with the reference `heun_step` of
    tests/llg_reference.py, op for op; only at sigma = 0 the products of
    hx = hy = 0 are exact zeros and are left out, gy = c (-mx hz) is gm (mx
    hz) and gz is the torque rate.
    """
    alpha, hk, tz = p.alpha, p.Hk, stt_rate(p, Is)
    gm, a2, half_dt, sqrt = GAMMA * MU0, alpha * alpha, 0.5 * dt, math.sqrt
    c, k, gz = -gm, 1.0 + a2, tz  # gz stays the torque rate at sigma = 0
    tilt = 0.0 if sigma else math.radians(T0_TILT_DEG)
    mx, my, mz = math.sin(tilt), 0.0, math.cos(tilt)
    decay_floor, noisy = math.sin(tilt) * 0.3, sigma > 0
    noise, n = np.zeros((SWITCH_BLOCK, 3)), 0
    block = noise.tolist()  # the zero field, until a draw
    while n < n_steps:
        if noisy:
            rng.standard_normal(out=noise)
            noise *= sigma
            block = noise.tolist()
        for n, (hx, hy, thz) in enumerate(block[:n_steps - n], n + 1):
            if noisy:                          # predictor drift d1
                hz = thz + hk * mz
                gx, gy, gz = (c * (my * hz - mz * hy), c * (mz * hx - mx * hz),
                              c * (mx * hy - my * hx) + tz)
            else:
                hz = hk * mz
                gx, gy = c * (my * hz), gm * (mx * hz)
            s = a2 * (mx * gx + my * gy + mz * gz)
            d1x = (gx + alpha * (my * gz - mz * gy) + s * mx) / k
            d1y = (gy + alpha * (mz * gx - mx * gz) + s * my) / k
            d1z = (gz + alpha * (mx * gy - my * gx) + s * mz) / k
            px, py, pz = mx + dt * d1x, my + dt * d1y, mz + dt * d1z
            if noisy:                          # corrector drift d2
                hz = thz + hk * pz
                gx, gy, gz = (c * (py * hz - pz * hy), c * (pz * hx - px * hz),
                              c * (px * hy - py * hx) + tz)
            else:
                hz = hk * pz
                gx, gy = c * (py * hz), gm * (px * hz)
            s = a2 * (px * gx + py * gy + pz * gz)
            d2x = (gx + alpha * (py * gz - pz * gy) + s * px) / k
            d2y = (gy + alpha * (pz * gx - px * gz) + s * py) / k
            d2z = (gz + alpha * (px * gy - py * gx) + s * pz) / k
            mx += half_dt * (d1x + d2x)
            my += half_dt * (d1y + d2y)
            mz += half_dt * (d1z + d2z)
            norm = sqrt(mx * mx + my * my + mz * mz)
            mx, my, mz = mx / norm, my / norm, mz / norm
            if mz <= level:
                return n
        if mz > 0 and sqrt(mx * mx + my * my) < decay_floor:
            return None
    return None


def t0_crossing_step(p: MagnetParams, Is: float, level: float, horizon: float,
                     dt: float) -> int | None:
    """First step n at which a noiseless magnet has m_z <= level, or None.

    Starts T0_TILT_DEG off +z toward +x under Is and runs round(horizon /
    dt) steps of `_crossing` at zero thermal field, which ends a run whose
    tilt collapses with None.
    """
    if dt > MAX_DT:
        raise ValueError(f"dt = {dt} exceeds stability guard {MAX_DT}")
    return _crossing(p, Is, level, int(round(horizon / dt)), dt)


def t0_switch_time(p: MagnetParams, Is: float, level: float) -> float | None:
    """Exact time [s] of the noiseless macrospin from the T0_TILT_DEG start
    to m_z = level under Is, math.inf if it never gets there, or None where
    the closed form gives no prediction (the r = 1 pole, a level outside
    (-1, start), a non-finite term).

    With u = m_z the uniaxial LLG with z torque is du/dt = -a (r - u)
    (1 - u^2), a = alpha gamma mu0 Hk / (1 + alpha^2) and r = -Is / I_c, I_c
    the `analytic_critical_current` (J. Z. Sun, Phys. Rev. B 62, 570 (2000));
    partial fractions integrate 1 / ((r - u)(1 - u^2)) from level to start.
    """
    u0 = math.cos(math.radians(T0_TILT_DEG))
    ic = analytic_critical_current(p)
    a = p.alpha * GAMMA * MU0 * p.Hk / (1.0 + p.alpha * p.alpha)
    if not (0.0 < ic < math.inf and a > 0.0 and -1.0 < level < u0):
        return None
    r = -Is / ic
    if r <= u0:
        return math.inf  # the tilt decays back to +z, or stays
    if r == 1.0:
        return None
    t = (math.log((r - level) / (r - u0)) / (1.0 - r * r)
         + math.log((1.0 - level) / (1.0 - u0)) / (2.0 * (r - 1.0))
         + math.log((1.0 + u0) / (1.0 + level)) / (2.0 * (r + 1.0))) / a
    return t if 0.0 < t < math.inf else None


def t0_threshold_current(p: MagnetParams, level: float,
                         horizon: float) -> float | None:
    """The current magnitude [A] whose `t0_switch_time` to `level` is
    `horizon`, bisected to the last float of r = I / I_c, or None where the
    closed form gives no prediction on the way."""
    ic = analytic_critical_current(p)
    lo, hi, r = math.cos(math.radians(T0_TILT_DEG)), math.inf, 2.0
    while lo < r < hi:  # r = I / I_c doubles until in time, then bisects
        t = t0_switch_time(p, -r * ic, level)
        if t is None:
            return None
        if t > horizon:
            lo = r
        else:
            hi = r
        r = 2.0 * r if hi == math.inf else 0.5 * (lo + hi)
    return hi * ic if hi < math.inf else None


def _bisect_critical(p: MagnetParams, horizon: float,
                     switches) -> tuple[float, float]:
    """The critical-current bracket (lo, hi) [A]: doubling from the
    analytic estimate, then bisection to CRITICAL_REL_TOL, by the outcome
    `switches(I)` of a T = 0 probe at each current magnitude I."""
    estimate = analytic_critical_current(p)
    if not 0.0 < estimate < math.inf:
        raise ValueError(f"analytic critical-current estimate {estimate:.3g} A "
                         "is zero or not finite: no bisection bracket")
    lo, hi = 0.0, estimate
    while not switches(hi):
        hi *= 2.0
        if hi / estimate > 1e3:
            raise RuntimeError("critical-current bracket failure: "
                               f"{hi:.3e} A does not switch within {horizon} s")
        lo = hi / 2.0
    while hi - lo > CRITICAL_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if switches(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def critical_spin_current(p: MagnetParams, horizon: float = 50e-9,
                          dt: float = 1e-12) -> float:
    """Zero-temperature bisection for the minimal switching current [A]:
    the smallest anti-parallel current magnitude that `t0_crossing_step`
    takes below m_z = -0.5 within the horizon, to CRITICAL_REL_TOL.

    The closed form decides the far probes. Where a probe current I lies
    more than CRITICAL_REL_TOL from the `t0_threshold_current` I* of the
    horizon, the bisection takes the predicted outcome (switch if I > I*)
    and runs no step; nearer probes run `t0_crossing_step`. Then the final
    hi must really switch and the final lo, if above 0, really not. Every
    predicted no-switch became lo, which only rises, and every predicted
    switch became hi, which only falls; so if the outcome is monotone in
    I, as every bisection assumes, a wrong prediction makes the final lo
    switch or the final hi not. A passing check thus means each prediction
    equalled the probe it replaced, and the value is bit for bit that of
    the bisection by steps alone (tests/llg_reference.py). On a failed
    check, or an error, that bisection runs instead, with its errors.
    """
    below = math.nextafter(-0.5, -math.inf)  # m_z < -0.5 as m_z <= below
    outcome = {}

    def steps(i: float) -> bool:
        if i not in outcome:
            n = t0_crossing_step(p, -i, below, horizon, dt)
            outcome[i] = n is not None
        return outcome[i]

    i_star = t0_threshold_current(p, -0.5, horizon)

    def guided(i: float) -> bool:
        if i_star is not None and abs(i / i_star - 1.0) > CRITICAL_REL_TOL:
            return i > i_star
        return steps(i)

    try:
        lo, hi = _bisect_critical(p, horizon, guided)
        if steps(hi) and not (lo > 0.0 and steps(lo)):
            return hi
    except (ValueError, RuntimeError):
        pass
    return _bisect_critical(p, horizon, steps)[1]


def switch_times(p: MagnetParams, Is: float, seeds,
                 cfg: SimConfig) -> list[float | None]:
    """First-passage times of m_z through -mz_threshold [s] at the
    temperature of `cfg`, one per seed: n dt for the first step n of
    `_crossing` that leaves m_z <= -mz_threshold, None after t_max.

    Each seed runs alone on its own make_rng(seed, STREAM_SWITCH), bit for
    bit a loop of the reference `heun_step` of tests/llg_reference.py fed
    rng.standard_normal(3) * sigma per step from +z. At T = 0 one run from
    the tilt of `t0_crossing_step` gives every seed its time. `Is` must
    oppose the +z start.
    """
    if Is >= 0:
        raise ValueError("Is must oppose the initial +z orientation")
    dt, sigma, level = cfg.dt, thermal_sigma(p, cfg), -cfg.mz_threshold
    n_steps = int(round(cfg.t_max / dt))
    if sigma:
        steps = [_crossing(p, Is, level, n_steps, dt,
                           make_rng(seed, STREAM_SWITCH), sigma)
                 for seed in seeds]
    else:
        steps = [_crossing(p, Is, level, n_steps, dt)] * len(seeds)
    return [None if n is None else n * dt for n in steps]
