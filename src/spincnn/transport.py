"""Spin injection and 1-D drift-diffusion through the copper channel.

The spin accumulation mu_s obeys d^2 mu_s / dx^2 = mu_s / l_sf^2 on the
channel [0, L] with an ideal sink (mu_s = 0) underneath the output magnet
and a prescribed injected spin current at x = 0. The spin current is
J_s = (sigma / e) d mu_s / dx, so the delivered fraction has the closed
form Is(L) / Is(0) = 1 / cosh(L / l_sf). `solve_drift_diffusion` checks it
on a finite-difference grid, by elimination without pivoting.

Contributions from multiple input magnets superimpose exactly: the ideal
sink at the output absorbs the spins, so cross-diffusion between inputs is
neglected. The grid sums them in `network.GridStepper.currents`, each
times `ChannelParams.delivery`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import Q

# sigma A / e of the copper channel (sigma = 5.8e7 S/m, A = 6e-17 m^2), from
# d(mu_s)/dx to spin current; it cancels in the transmission
SIGMA_A_OVER_Q = 5.8e7 * 6e-17 / Q


@dataclass(frozen=True)
class ChannelParams:
    """Copper channel between an input magnet and the output magnet."""

    L: float = 100e-9            # input-to-output spacing [m]
    l_sf: float = 420e-9         # spin relaxation length [m]
    beta: float = 0.5            # spin injection coefficient
    ground_spin_sink: float = 0.0  # fraction g of spin diverted to ground

    def __post_init__(self):
        if self.L < 0:
            raise ValueError(f"length L = {self.L:g} m must be >= 0")
        if self.l_sf <= 0:
            raise ValueError(f"l_sf = {self.l_sf:g} m must be > 0")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must be in (0, 1]")
        if not 0 <= self.ground_spin_sink < 1:
            raise ValueError("ground_spin_sink must be in [0, 1)")

    @cached_property
    def delivery(self) -> float:
        """Delivered spin-current fraction (1 - g) / cosh(L / l_sf)."""
        return (1.0 - self.ground_spin_sink) * spin_transmission(self)


def spin_transmission(channel: ChannelParams) -> float:
    """Delivered spin-current fraction Is(L)/Is(0) = 1/cosh(L/l_sf)."""
    try:
        return 1.0 / math.cosh(channel.L / channel.l_sf)
    except OverflowError:  # cosh past the float range: no spin arrives
        return 0.0


def injected_spin_current(charge_current: float,
                          channel: ChannelParams) -> float:
    """Spin current injected at the input magnet: beta * I_charge [A]."""
    return channel.beta * charge_current


def solve_drift_diffusion(n_points: int, channel: ChannelParams,
                          injected_spin_current_A: float):
    """Finite-difference solution of the channel boundary-value problem.

    Returns (x, mu_s, J_s): node positions [m], spin accumulation [J] and
    spin current [A] on a uniform grid of n_points nodes. Second-order
    discretization; the transmission Js(L)/Js(0) converges to the closed
    form at O(1/N^2). The tridiagonal system is solved by elimination
    without pivoting, which is safe: as c = (h / l_sf)^2 >= 0, every pivot
    has |u_k| = 2 + c - s_k / |u_{k-1}| >= 1 (s_1 = 2, else 1).
    """
    if n_points < 16:
        raise ValueError("need at least 16 grid points")
    L, l = channel.L, channel.l_sf
    n = n_points
    h = L / (n - 1)
    if not h > 0:
        raise ValueError(f"channel length L = {L:g} m leaves no grid spacing")
    h2, l2 = h * h, l * l
    if not math.isfinite(h2):
        raise ValueError(f"channel length L = {L:g} m is too long for the "
                         f"{n}-point drift-diffusion grid: the squared grid "
                         "spacing overflows")
    if not l2 > 0:
        raise ValueError(f"channel l_sf = {l:g} m is too short for the "
                         f"{n}-point drift-diffusion grid: l_sf^2 underflows "
                         "to 0")
    c = h2 / l2
    if not math.isfinite(c):
        raise ValueError(f"channel length L = {L:g} m over l_sf = {l:g} m "
                         f"is out of range for the {n}-point drift-diffusion "
                         "grid: (spacing / l_sf)^2 overflows")
    x = np.linspace(0.0, L, n)
    # Neumann BC at x = 0 via ghost node: mu_{-1} = mu_1 + 2 h mu'(0),
    # with (sigma A / e) mu'(0) = -I_inj (current flows toward the sink at
    # +x for positive injection).
    dmu0 = -injected_spin_current_A / SIGMA_A_OVER_Q
    # unknowns mu_0 .. mu_{n-2}, mu_{n-1} = 0 (ideal sink): diagonal -(2 + c),
    # off-diagonals 1, but the ghost node doubles the superdiagonal of row 0
    diag = -(2.0 + c)
    u = [diag] * (n - 1)
    y = [2.0 * h * dmu0] + [0.0] * (n - 2)
    for k in range(1, n - 1):
        l_k = 1.0 / u[k - 1]
        u[k] = diag - l_k * (2.0 if k == 1 else 1.0)
        y[k] = 0.0 - l_k * y[k - 1]  # b_k - l_k y_{k-1}: an underflow is +0
    mu = [0.0] * n
    for k in range(n - 2, -1, -1):
        mu[k] = (y[k] - (2.0 if k == 0 else 1.0) * mu[k + 1]) / u[k]
    mu = np.array(mu)
    # spin current from second-order derivatives of mu_s
    dmu = np.gradient(mu, h, edge_order=2)
    J = -SIGMA_A_OVER_Q * dmu
    return x, mu, J


def numeric_transmission(n_points: int, channel: ChannelParams) -> float:
    """Js(L)/Js(0) from the finite-difference solver."""
    _, _, J = solve_drift_diffusion(n_points, channel, 1e-6)
    return J[-1] / J[0]
