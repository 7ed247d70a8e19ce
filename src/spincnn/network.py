"""Spintronic CNN engine: a grid of macrospin neurons coupled through
spin-current synapses with strictly nearest-neighbor (3x3) connectivity.

Update semantics are synchronous: every cell's logic output is read from
the current magnetizations, all net spin currents are assembled from those
outputs, and only then is every magnet advanced one LLG step. Thermal
noise is drawn from a counter-based stream keyed by (seed, step), so
trajectories are bit-reproducible regardless of evaluation order.

`run` steps the grid through one `GridStepper`, which keeps the magnets in
the component-first layout of `dynamics.GridHeun` and steps them in place,
and `core.settle` decides when it has settled. The template drive of every
cell is W @ y + c, from the operator that `core.template_operator` builds
once per run, rebuilt only when a logic output flips. Bit-identity
contract: every trajectory equals, bit for bit, the plain loop of
`dynamics.heun_step` on the (rows, cols, 3) layout, with one
make_rng(seed, STREAM_LLG, n) draw per step n and `net_currents` rebuilt
from the logic outputs after every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dynamics
from .core import (BOUNDARY_MINUS_ONE, BOUNDARY_ZERO_FLUX, STREAM_LLG,
                   MagnetParams, Pattern, SimConfig, TemplateSet, make_rng,
                   neighbour_index, settle, template_operator)
from .readpath import InverterModel, MtjParams, logic_mz_boundary
from .synapse import (LEVELS_PER_UNIT_WEIGHT, quantize_weight,
                      representable_weights)
from .transport import ChannelParams, spin_transmission


@dataclass(frozen=True)
class CellModel:
    """Everything a neuron needs besides its state: device parameters and
    the unit-weight spin current."""

    magnet: MagnetParams = MagnetParams()
    channel: ChannelParams = ChannelParams()
    mtj: MtjParams = MtjParams()
    inverter: InverterModel = InverterModel()
    i0: float = 0.0               # injected spin current per unit weight [A]
    boundary: str = BOUNDARY_MINUS_ONE

    def __post_init__(self):
        if self.boundary not in (BOUNDARY_MINUS_ONE, BOUNDARY_ZERO_FLUX):
            raise ValueError(f"unknown boundary rule {self.boundary!r}")

    @cached_property
    def logic_boundary_mz(self) -> float:
        b = logic_mz_boundary(self.mtj, self.inverter)
        return 0.0 if abs(b) < 1e-12 else b

    @cached_property
    def delivery_factor(self) -> float:
        ch = self.channel
        return (1.0 - ch.ground_spin_sink) * spin_transmission(ch.L, ch.l_sf)


@dataclass
class CnnGrid:
    """Initial network state: per-cell magnetization and fixed inputs.

    `run` steps a copy of `m`, so a grid can start any number of runs.
    """

    m: np.ndarray                 # (rows, cols, 3) unit vectors
    u: np.ndarray                 # (rows, cols) bipolar inputs
    templates: TemplateSet

    @classmethod
    def from_pattern(cls, initial: Pattern, inputs: Pattern,
                     templates: TemplateSet) -> "CnnGrid":
        if (initial.rows, initial.cols) != (inputs.rows, inputs.cols):
            raise ValueError("initial state and input shapes differ")
        state = initial.to_array().astype(float)
        m = np.zeros((initial.rows, initial.cols, 3))
        m[:, :, 2] = state
        return cls(m, inputs.to_array().astype(float), templates)

    def logic_pattern(self, model: CellModel) -> Pattern:
        logic = np.where(self.m[:, :, 2] > model.logic_boundary_mz, 1, -1)
        return Pattern.from_array(logic)


@dataclass
class Trajectory:
    """Sampled m_z frames plus convergence and activity bookkeeping."""

    times: np.ndarray                 # strictly increasing sample times [s]
    mz: np.ndarray                    # (n_samples, rows, cols)
    convergence_time: float | None
    final_pattern: Pattern
    initial_pattern: Pattern
    flipped_pixels: int               # Hamming(initial, final) activity count
    seed: int

    @property
    def converged(self) -> bool:
        return self.convergence_time is not None


def _currents(W, c, y: np.ndarray, model: CellModel) -> np.ndarray:
    """Net spin currents [A] for logic outputs y under the drive W @ y + c."""
    weights = (W @ y.reshape(-1) + c).reshape(y.shape)
    return model.i0 * weights * model.delivery_factor


def net_currents(grid: CnnGrid, model: CellModel) -> np.ndarray:
    """Net perpendicular spin current per neuron [A] at the current state."""
    y = np.where(grid.m[:, :, 2] > model.logic_boundary_mz, 1.0, -1.0)
    W, c = template_operator(grid.templates, grid.u, model.boundary)
    return _currents(W, c, y, model)


class GridStepper:
    """Advances one grid in place; built once per run, one call per step.

    Holds the magnets in a `dynamics.GridHeun` (`mz` is a live view of
    m_z), the template operator (W, c), the thermal sigma (the dt guard is
    checked once) and one Philox generator keyed by (seed, STREAM_LLG); the
    logic boundary and the delivery factor are cached on the `CellModel`.
    Step n, counted from 0, resets the counter to n before its draw, which
    gives the bits of make_rng(seed, STREAM_LLG, n); the sample is drawn
    into a reused (rows, cols, 3) buffer. `y`, `Is` and `torque` hold the
    logic outputs and the drive they give; `step` rebuilds the drive only
    when some output flips.
    """

    def __init__(self, grid: CnnGrid, cfg: SimConfig, model: CellModel):
        if cfg.dt > dynamics.MAX_DT:
            raise ValueError(f"dt = {cfg.dt} exceeds stability guard {dynamics.MAX_DT}")
        self.model = model
        self.mz_threshold = cfg.mz_threshold
        self.W, self.c = template_operator(grid.templates, grid.u, model.boundary)
        self.sigma = dynamics.thermal_sigma(model.magnet, cfg.temperature, cfg.dt)
        self.heun = dynamics.GridHeun(grid.m, model.magnet, cfg.dt)
        self.mz = self.heun.m[2]
        self.step_index = 0
        self.noise = np.zeros(grid.m.shape)
        self.noise_by_component = self.noise.transpose(2, 0, 1)
        self.rng = make_rng(cfg.seed, STREAM_LLG)
        self.rng_state = self.rng.bit_generator.state
        self.y = self.outputs()
        self._drive()

    def outputs(self) -> np.ndarray:
        """Bipolar logic outputs read from the current magnetizations."""
        return np.where(self.mz > self.model.logic_boundary_mz, 1.0, -1.0)

    def currents(self, y: np.ndarray) -> np.ndarray:
        """Net spin currents [A] for logic outputs y."""
        return _currents(self.W, self.c, y, self.model)

    def _drive(self) -> None:
        self.Is = self.currents(self.y)
        self.torque = dynamics.stt_rate(self.model.magnet, self.Is)

    def advance(self, torque) -> None:
        """One synchronous LLG step of every magnet under `torque`."""
        if self.sigma:
            self.rng_state["state"]["counter"][3] = self.step_index
            self.rng.bit_generator.state = self.rng_state
            self.rng.standard_normal(out=self.noise)
            self.noise *= self.sigma
        self.heun.step(torque, self.noise_by_component)
        self.step_index += 1

    def step(self) -> None:
        """Advance under the current drive, then rebuild the drive if some
        logic output flipped: the same bits as rebuilding it every step."""
        self.advance(self.torque)
        y = self.outputs()
        if (y != self.y).any():
            self.y = y
            self._drive()

    def settled(self) -> bool:
        """All magnets saturated and no net current opposes its magnet.

        The torque-consistency clause distinguishes a genuine fixed point
        from the slow early escape from the pole, where a driven magnet
        still sits at |m_z| > threshold, and keeps sub-critically driven
        wrong pixels reported as non-converged.
        """
        if not (np.abs(self.mz) >= self.mz_threshold).all():
            return False
        return bool((self.Is * np.sign(self.mz) >= 0.0).all())


def run(grid: CnnGrid, cfg: SimConfig, model: CellModel) -> Trajectory:
    """Step until settled continuously for hold_time, or t_max.

    A `GridStepper` steps a copy of `grid.m`; `core.settle` samples it and
    stops it once `GridStepper.settled` has held for hold_time.
    """
    s = GridStepper(grid, cfg, model)
    initial = Pattern.from_array(s.y.astype(int))
    times, frames, conv_time = settle(
        s.step, s.settled, s.mz.copy, cfg.dt, cfg.t_max, cfg.hold_time,
        cfg.sample_interval)
    final = Pattern.from_array(s.y.astype(int))  # y is read from the last state
    flips = int(np.sum(final.to_array() != initial.to_array()))
    return Trajectory(times, frames, conv_time, final, initial, flips, cfg.seed)


def noise_filter_templates() -> TemplateSet:
    """Spintronic noise-filter templates: cross-shaped A with center 1."""
    A = np.array([[0.0, 1.0, 0.0],
                  [1.0, 1.0, 1.0],
                  [0.0, 1.0, 0.0]])
    return TemplateSet(A, np.zeros((3, 3)), 0.0)


def hebbian_train(pairs: list[tuple[Pattern, Pattern]],
                  quantize: bool = True) -> TemplateSet:
    """Space-varying templates from the local outer-product rule.

    For each cell and each 3x3 neighbor offset,
        A = mean_p target * target_neighbor,
        B = mean_p target * cue_neighbor,
        I = 0,
    with -1 virtual values outside the grid. Weights are scaled by 4
    (unit weight = synapse level 4) and snapped to representable levels.
    """
    if not pairs:
        raise ValueError("empty training set")
    shapes = {(c.rows, c.cols) for c, t in pairs} | {(t.rows, t.cols) for c, t in pairs}
    if len(shapes) != 1:
        raise ValueError("all training patterns must share one shape")
    rows, cols = shapes.pop()
    n = rows * cols
    idx = neighbour_index(rows, cols, BOUNDARY_MINUS_ONE)
    A = np.zeros((n, 9))
    B = np.zeros((n, 9))
    for cue, target in pairs:
        c = np.append(cue.to_array(), -1.0)
        t = np.append(target.to_array(), -1.0)
        A += t[:n, None] * t[idx]
        B += t[:n, None] * c[idx]
    A = A.reshape(rows, cols, 3, 3) / len(pairs)
    B = B.reshape(rows, cols, 3, 3) / len(pairs)
    I = np.zeros((rows, cols))
    if quantize:
        A = quantize_templates(A)
        B = quantize_templates(B)
    return TemplateSet(A, B, I)


def quantize_templates(weights: np.ndarray) -> np.ndarray:
    """Snap template-unit weights to representable synapse levels / 4."""
    return quantize_weight(weights * LEVELS_PER_UNIT_WEIGHT) / LEVELS_PER_UNIT_WEIGHT


def run_associative(cue: Pattern, templates: TemplateSet, cfg: SimConfig,
                    model: CellModel) -> Trajectory:
    """Recall run: the cue is both the initial state and the input image."""
    if templates.kind != "space-varying":
        raise ValueError("associative recall needs space-varying templates")
    grid = CnnGrid.from_pattern(cue, cue, templates)
    return run(grid, cfg, model)


# ---------------------------------------------------------------------------
# Template file schema: header "rows cols", then one line per cell
# (row-major) of 19 integers: 9 A levels, 9 B levels, 1 I level
# (levels are template units times 4).

def save_templates(t: TemplateSet, rows: int, cols: int) -> str:
    A, B, I = t.per_cell(rows, cols)
    n = rows * cols
    weights = np.hstack([A.reshape(n, 9), B.reshape(n, 9), I.reshape(n, 1)])
    levels = np.rint(weights * LEVELS_PER_UNIT_WEIGHT).astype(int)
    lines = [f"{rows} {cols}"] + [" ".join(map(str, cell)) for cell in levels]
    return "\n".join(lines) + "\n"


def load_templates(text: str) -> TemplateSet:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        rows, cols = (int(v) for v in lines[0].split())
    except (ValueError, IndexError) as exc:
        raise ValueError("template file: bad header line") from exc
    if len(lines) != 1 + rows * cols:
        raise ValueError(f"template file: expected {rows * cols} cell lines, "
                         f"got {len(lines) - 1}")
    levels = set(representable_weights())
    cells = []
    for k, ln in enumerate(lines[1:], start=1):
        vals = [int(v) for v in ln.split()]
        if len(vals) != 19:
            raise ValueError(f"template file: cell line {k} must have "
                             "19 integers")
        bad = set(vals) - levels
        if bad:
            raise ValueError(f"template file: cell line {k}: level "
                             f"{min(bad)} is not a synapse level "
                             f"{sorted(levels)}")
        cells.append(vals)
    w = np.array(cells, dtype=float).reshape(rows, cols, 19) / LEVELS_PER_UNIT_WEIGHT
    return TemplateSet(w[..., :9].reshape(rows, cols, 3, 3),
                       w[..., 9:18].reshape(rows, cols, 3, 3), w[..., 18])
