"""Conventional analog CNN baseline: Chua's state equation plus a
calibrated amplifier power/delay/area scaling model.

The cell dynamics are

    C dx/dt = -x/R + sum(A y_neighbors) + sum(B u_neighbors) + I,
    y = f(x),

integrated with classical RK4 on the grid, with -1 virtual cells outside
it. The output function is the standard piecewise-linear saturation
0.5 (|x+1| - |x-1|). The neighbour sums are W y + c: `core.template_operator`
builds (W, c) once per run, B u + I in c, and `core.neighbour_sum` takes W y.

A run stops through `core.settle`, the hold-and-sample loop of the
spintronic grid, as a single member, once every cell is settled:
|x| >= 1 and sign(x) R (W f(x) + c) >= 1. With every output saturated
the drive W f(x) + c is constant, so each x relaxes monotonically
towards R times it; the rule therefore proves that no output changes
again, where |x| >= 1 alone would accept a saturated cell whose drive
pulls it back.

The power/delay numbers are NOT derived from circuit simulation: they are
a two-parameter calibration (P_0, delay_0 per cell at unit bias) chosen to
reproduce the published trade-off shape, and every report produced from
them is labeled accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (BOUNDARY_MINUS_ONE, TemplateSet, neighbour_sum, settle,
                   template_operator)

# the process geometry of both sides: feature size F [m], unit width [F]
FEATURE_SIZE = 16e-9
MIN_WIDTH_F = 4.0
# transistor widths [unit widths]
OP_AMP_WIDTH = 7 * 2       # the op amp of a neuron: 7 transistors of 2
OTA_BASE_WIDTH = 6.0       # fixed OTA transistors per synapse stage
SIGN_OVERHEAD_WIDTH = 8.0  # inverter + mux + memory per synapse


@dataclass(frozen=True)
class ChuaParams:
    R: float = 1.0   # linear feedback resistance (normalized units)
    C: float = 1.0   # cell capacitance (normalized units)

    def __post_init__(self):
        if self.R <= 0 or self.C <= 0:
            raise ValueError("R and C must be > 0")

    @property
    def tau(self) -> float:
        return self.R * self.C


@dataclass(frozen=True)
class AmplifierModel:
    """Calibrated per-cell amplifier/OTA scaling model (16 nm class)."""

    p_neuron: float = 4e-5        # neuron bias power at unit scale [W]
    p_synapse: float = 8e-6       # per-synapse bias power at unit scale [W]
    delay_0: float = 100e-9       # convergence delay at unit scale [s]
    delay_floor: float = 10e-9    # bandwidth/DC-gain limit [s]
    p_leak: float = 0.0           # scale-independent static power per cell [W]

    def __post_init__(self):
        for name in ("delay_0", "delay_floor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


def f_output(x):
    """Standard CNN saturation 0.5 (|x+1| - |x-1|), elementwise."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (np.abs(x + 1.0) - np.abs(x - 1.0))


def _grid_derivative(x: np.ndarray, W, c: np.ndarray,
                     p: ChuaParams) -> np.ndarray:
    """dx/dt of every cell (Chua state equation divided by C); x is flat,
    row-major, and (W, c) come from `core.template_operator`."""
    return (-x / p.R + (neighbour_sum(W, f_output(x)) + c)) / p.C


def integrate(x0: np.ndarray, u: np.ndarray, templates, p: ChuaParams,
              dt: float, t_max: float, hold_time: float = 0.0,
              sample_interval: float | None = None):
    """RK4 integration of the grid until it has stayed settled (see the
    module docstring) for hold_time, or t_max; frames every
    sample_interval, by default every step.

    Returns (times, states, convergence_time); convergence_time is None
    when the hold is never met before t_max.
    """
    if dt > p.tau / 10.0:
        raise ValueError(f"dt = {dt} exceeds stability guard tau/10 = {p.tau / 10}")
    shape = np.shape(x0)
    x = np.array(x0, dtype=float).reshape(-1)
    W, c = template_operator(templates, np.asarray(u, dtype=float),
                             BOUNDARY_MINUS_ONE)

    def f(state):
        return _grid_derivative(state, W, c, p)

    def step():
        nonlocal x
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def settled():
        if not np.all(np.abs(x) >= 1.0):
            return [False]
        drive = neighbour_sum(W, f_output(x)) + c
        return [bool(np.all(np.sign(x) * p.R * drive >= 1.0))]

    times, states, conv_time = [], [], None

    def sample(t, which):
        times.append(t)
        states.append(x.copy())

    def stop(which, t, converged):
        nonlocal conv_time
        conv_time = t if converged else None

    settle(step, settled, sample, stop, dt, t_max, hold_time,
           sample_interval or dt)
    return np.array(times), np.array(states).reshape((-1,) + shape), conv_time


def cmos_noise_filter_templates():
    """CMOS counterpart of the spintronic filter: center weight 2."""
    A = np.array([[0.0, 1.0, 0.0],
                  [1.0, 2.0, 1.0],
                  [0.0, 1.0, 0.0]])
    return TemplateSet(A, np.zeros((3, 3)), 0.0)


def cmos_power_delay(a: AmplifierModel, scale: float,
                     n_cells: int = 1, n_syn: int = 0,
                     syn_power_factor: float = 1.0) -> tuple[float, float]:
    """(power [W], delay [s]) at a bias multiplier.

    Power scales linearly with bias; delay shortens as 1/scale down to the
    amplifier bandwidth floor.
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    per_cell = a.p_neuron + n_syn * a.p_synapse * syn_power_factor
    power = n_cells * (per_cell * scale + a.p_leak)
    delay = max(a.delay_0 / scale, a.delay_floor)
    return power, delay


def cmos_energy(a: AmplifierModel, scale: float, n_cells: int, n_syn: int,
                syn_power_factor: float = 1.0) -> tuple[float, float]:
    """(energy per operation [J], delay [s]) for one converged run."""
    power, delay = cmos_power_delay(a, scale, n_cells, n_syn, syn_power_factor)
    return power * delay, delay


def cmos_area(synapse_count: int, resolution_bits: int,
              n_cells: int = 1) -> float:
    """Footprint from summed transistor widths times 8F.

    Per neuron: the 7-transistor op amp. Per synapse: a transconductance
    stage with quantized tail widths (1, 2, 4, ... per resolution bit)
    plus the sign/mux/memory overhead transistors.
    """
    if synapse_count < 0 or resolution_bits < 1 or n_cells <= 0:
        raise ValueError("counts must be positive")
    w_min = MIN_WIDTH_F * FEATURE_SIZE
    tail_w = sum(2 ** b for b in range(resolution_bits))
    syn_w = OTA_BASE_WIDTH + tail_w + SIGN_OVERHEAD_WIDTH
    total_width = n_cells * (OP_AMP_WIDTH + synapse_count * syn_w) * w_min
    return total_width * 8.0 * FEATURE_SIZE
