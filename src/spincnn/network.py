"""Spintronic CNN engine: a grid of macrospin neurons coupled through
spin-current synapses with strictly nearest-neighbor (3x3) connectivity.

Update semantics are synchronous: every cell's logic output is read from
the current magnetizations, all net spin currents are assembled from those
outputs, and only then is every magnet advanced one LLG step. Thermal
noise is drawn from a counter-based stream keyed by (seed, step), so
trajectories are bit-reproducible regardless of evaluation order.

`run_many` steps an ensemble of grids (members) through one `GridStepper`,
which keeps the magnets of all running members in the component-first
layout of `dynamics.GridHeun`, (5, members, rows, cols), and steps them in
place; `core.settle` decides when each member has settled and hands it
back, and the stepper then drops it, so the kernel's cost follows the
members still running. `run` is the one-member case. The drive of every
cell is i0 (W y + c) times the channel's delivered fraction, from the
`core.template_operator` (W, c), summed by `core.neighbour_sum`, rebuilt
only when a logic output flips. `GridStepper.currents` is the one place
that sums the synapses' spin currents; `net_currents` reads it for one
grid. Bit-identity contract: every member's trajectory equals, bit for
bit, the plain loop of the reference `heun_step` of tests/llg_reference.py
on its own (rows, cols, 3) layout, with one make_rng(seed, STREAM_LLG, n)
draw per step n and the drive rebuilt from the logic outputs after every
step, whatever the other members of its ensemble. That draw depends on
the seed and n alone, so the stepper keeps one Philox generator per
distinct seed, and the running members on one seed share each step's
sample: it is drawn once and copied to the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import dynamics
from .core import (BOUNDARY_MINUS_ONE, BOUNDARY_ZERO_FLUX, STREAM_LLG,
                   MagnetParams, Pattern, SimConfig, TemplateSet, make_rng,
                   neighbour_index, neighbour_sum, settle, template_operator)
from .readpath import InverterModel, MtjParams, logic_mz_boundary
from .synapse import (LEVELS_PER_UNIT_WEIGHT, quantize_weight,
                      representable_weights)
from .transport import ChannelParams


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

    def logic(self, mz: np.ndarray) -> np.ndarray:
        """Logic outputs of m_z: +1.0 above the logic boundary, else -1.0."""
        return np.where(mz > self.logic_boundary_mz, 1.0, -1.0)


@dataclass
class CnnGrid:
    """Initial network state: per-cell magnetization and fixed inputs.

    `run_many` steps a copy of `m`, so a grid can start any number of runs.
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
        return Pattern.from_array(model.logic(self.m[:, :, 2]))


@dataclass
class Trajectory:
    """Sampled m_z frames plus convergence and activity bookkeeping.

    A run without frames (`run_many(..., frames=False)`) keeps only the
    last sample, taken when the run stopped.
    """

    times: np.ndarray                 # strictly increasing sample times [s]
    mz: np.ndarray                    # (n_samples, rows, cols)
    convergence_time: float | None
    final_pattern: Pattern
    initial_pattern: Pattern
    flipped_pixels: int               # Hamming(initial, final) activity count

    @property
    def converged(self) -> bool:
        return self.convergence_time is not None


@dataclass
class _Member:
    """What one ensemble member keeps of its own while it runs."""

    slot: int                     # position in the list of members
    seed: int
    i0: float
    W: tuple                      # (tap weights, neighbour index)
    c: np.ndarray
    initial: Pattern
    times: list = field(default_factory=list)
    frames: list = field(default_factory=list)


class GridStepper:
    """Advances an ensemble of grids in place, all on one kernel; built once
    per run, one call per step.

    A member is a (grid, cfg, model) triple. Members may differ in their
    grid (state, inputs and templates), in `cfg.seed` and in `model.i0`,
    and must share the grid shape and everything else. The magnets of the
    running members sit in one `dynamics.GridHeun` of shape (5, members,
    rows, cols) (`mz` is a live view of m_z). The drive of every member is
    W y + c from its own `core.template_operator`, times its own i0; the
    members share the neighbour index of W and stack its tap weights and
    c. The thermal sigma is shared by all members. There is one Philox
    generator per distinct seed, keyed by (seed, STREAM_LLG): step n,
    counted from 0, resets its counter to n before the draw, which gives
    the bits of make_rng(seed, STREAM_LLG, n). Members on one seed share
    each step's sample: `draws` holds one entry per distinct running seed,
    which draws straight into the slice of the first running member on
    that seed in the kernel's (members, rows, cols, 3) `noise` buffer, and
    `copies` names the slices that then take a copy of it. Both are
    rebuilt at each compaction, so a draw passes to a member still running
    when the member that drew it stops. `y` and `Is` hold the logic
    outputs and the drive they give, and each drive rebuild writes its
    torque into the kernel's `torque` buffer; `step` rebuilds the drive
    only when some output flips. `q` holds per member the minimum over its
    cells of y m_z, and `held` whether min(Is y) >= 0: the two halves of
    the settle rule.

    `sample` and `stop` are the callbacks of `core.settle`. `stop` records
    a member's `Trajectory` in `trajectories`, at the member's position in
    the list it was built from, and compacts every buffer to the members
    still running. With frames=False a trajectory keeps only its last
    sample, at the time the member stopped.
    """

    def __init__(self, members, frames: bool = True):
        members = list(members)
        if not members:
            raise ValueError("an ensemble needs at least one member")
        grid, cfg, model = members[0]
        for g, c, m in members[1:]:
            if g.m.shape != grid.m.shape:
                raise ValueError("ensemble members differ in grid shape")
            if replace(c, seed=cfg.seed) != cfg:
                raise ValueError("ensemble members may differ in SimConfig "
                                 "only by seed")
            if replace(m, i0=model.i0) != model:
                raise ValueError("ensemble members may differ in CellModel "
                                 "only by i0")
        self.model, self.dt, self.frames = model, cfg.dt, frames
        self.mz_threshold = cfg.mz_threshold
        self.abs_b = abs(model.logic_boundary_mz)
        self.sigma = dynamics.thermal_sigma(model.magnet, cfg)
        self.heun = dynamics.GridHeun(np.stack([g.m for g, _, _ in members]),
                                      model.magnet, cfg.dt)
        self.step_index = 0
        self.running = []
        self.rngs = {}            # seed -> (Philox generator, its state)
        for k, (g, c, m) in enumerate(members):
            if c.seed not in self.rngs:
                rng = make_rng(c.seed, STREAM_LLG)
                self.rngs[c.seed] = rng, rng.bit_generator.state
            W, c0 = template_operator(g.templates, g.u, model.boundary)
            self.running.append(_Member(k, c.seed, m.i0, W, c0,
                                        g.logic_pattern(model)))
        self.trajectories: list[Trajectory | None] = [None] * len(members)
        self._bind()
        self.y = self.model.logic(self.mz)
        self._drive()

    def _bind(self) -> None:
        """(Re)build the stacked buffers of the running members."""
        run = self.running
        self.mz = self.heun.m[2]
        self.W = np.stack([m.W[0] for m in run]), run[0].W[1]
        self.c = np.stack([m.c for m in run])
        self.i0 = np.array([m.i0 for m in run]).reshape(-1, 1, 1)
        first = {}                # seed -> first running member on it
        for i, m in enumerate(run):
            first.setdefault(m.seed, i)
        noise = self.heun.noise
        self.draws = [(*self.rngs[seed], noise[i])
                      for seed, i in first.items()]
        self.copies = [(noise[i], noise[first[m.seed]])
                       for i, m in enumerate(run) if first[m.seed] != i]
        self.ymz = np.empty(self.mz.shape)

    def currents(self, y: np.ndarray) -> np.ndarray:
        """Net spin currents [A] for the logic outputs y of the running
        members, shape (members, rows, cols)."""
        weights = neighbour_sum(self.W, y.reshape(len(y), -1)) + self.c
        return self.i0 * weights.reshape(y.shape) * self.model.channel.delivery

    def _margin(self) -> None:
        """`q`: per member the minimum over its cells of y m_z."""
        np.multiply(self.y, self.mz, out=self.ymz)
        self.q = np.minimum.reduce(self.ymz, axis=(1, 2)).tolist()

    def _drive(self) -> None:
        """Rebuild the drive from `y`: `Is`, the kernel's torque, `held`,
        per member min(Is y) >= 0, and `q`."""
        self.Is = self.currents(self.y)
        self.heun.torque[...] = dynamics.stt_rate(self.model.magnet, self.Is)
        self.held = (np.minimum.reduce(self.Is * self.y, axis=(1, 2))
                     >= 0.0).tolist()
        self._margin()

    def advance(self) -> None:
        """One synchronous LLG step of every magnet under the kernel's
        torque: each distinct seed draws its sample once into
        `heun.noise`, and the other members on that seed copy it."""
        if self.sigma:
            for rng, state, out in self.draws:
                state["state"]["counter"][3] = self.step_index
                rng.bit_generator.state = state
                rng.standard_normal(out=out)
            for out, drawn in self.copies:
                np.copyto(out, drawn)
            self.heun.noise *= self.sigma
        self.heun.step()
        self.step_index += 1

    def step(self) -> None:
        """Advance under the current drive, then rebuild the drive if some
        logic output flipped: the same bits as rebuilding it every step.

        First `q` is taken. A cell with y m_z > |b|, b the logic boundary,
        still reads y, so when every member has q > |b| no output can have
        flipped, and the step skips the read and the compare.
        """
        self.advance()
        self._margin()
        if all(q > self.abs_b for q in self.q):
            return
        y = self.model.logic(self.mz)
        if (y != self.y).any():
            self.y = y
            self._drive()

    def settled(self) -> list[bool]:
        """Per running member: every magnet holds its logic output y with
        y m_z >= mz_threshold, and no net current opposes an output
        (Is y >= 0).

        The current clause distinguishes a genuine fixed point from the
        slow early escape from the pole, where a driven magnet still sits
        past the threshold, and keeps sub-critically driven wrong pixels
        reported as non-converged.
        """
        return [q >= self.mz_threshold and held
                for q, held in zip(self.q, self.held)]

    def sample(self, t: float, which: list[int]) -> None:
        """Check that every running member is finite; with frames, record
        the m_z frame of the members `which` at time t."""
        if not np.isfinite(self.mz).all():
            bad = np.isfinite(self.mz).all(axis=(1, 2)).argmin()
            raise ValueError(f"magnetisation is not finite at t = "
                             f"{t * 1e9:.6g} ns (seed {self.running[bad].seed})")
        if self.frames:
            for i, frame in zip(which, self.mz[which]):
                self.running[i].times.append(t)
                self.running[i].frames.append(frame)

    def stop(self, which: list[int], t: float, converged: bool) -> None:
        """Record the members `which` as stopped at time t, and compact."""
        for i in which:
            m = self.running[i]
            if not self.frames:
                m.times, m.frames = [t], [self.mz[i].copy()]
            final = Pattern.from_array(self.y[i].astype(int))
            flips = int(np.sum(final.to_array() != m.initial.to_array()))
            self.trajectories[m.slot] = Trajectory(
                np.array(m.times), np.array(m.frames),
                t if converged else None, final, m.initial, flips)
        keep = [i for i in range(len(self.running)) if i not in which]
        if not keep:
            return
        self.running = [self.running[i] for i in keep]
        self.y = self.y[keep]
        self.heun = dynamics.GridHeun(np.moveaxis(self.heun.m[:3, keep], 0, -1),
                                      self.model.magnet, self.dt)
        self._bind()
        self._drive()


def net_currents(grid: CnnGrid, model: CellModel) -> np.ndarray:
    """Net perpendicular spin current per neuron [A] at the grid's state:
    the drive of a one-member `GridStepper`."""
    return GridStepper([(grid, SimConfig(), model)]).Is[0]


def run_many(members, frames: bool = True) -> list[Trajectory]:
    """Run (grid, cfg, model) members together until each has settled
    continuously for hold_time, or t_max; one `Trajectory` per member, in
    order.

    One `GridStepper` steps copies of every `grid.m`; `core.settle` samples
    it and hands back each member once its own `GridStepper.settled` has
    held for hold_time, or at t_max. Bit-identity contract: every member's
    trajectory (times, frames, convergence time and final pattern) is the
    one it gets when run alone, whatever the other members; frames=False
    keeps only each member's last sample.
    """
    # a state that overflows is reported once, by the finite check of
    # `GridStepper.sample`, not by a warning from the first drive or from
    # each kernel call
    with np.errstate(all="ignore"):
        s = GridStepper(members, frames)
        cfg = members[0][1]
        settle(s.step, s.settled, s.sample, s.stop, cfg.dt, cfg.t_max,
               cfg.hold_time, cfg.sample_interval)
    return s.trajectories


def run(grid: CnnGrid, cfg: SimConfig, model: CellModel) -> Trajectory:
    """Step until settled continuously for hold_time, or t_max: `run_many`
    with one member."""
    return run_many([(grid, cfg, model)])[0]


def noise_filter_templates() -> TemplateSet:
    """Spintronic noise-filter templates: cross-shaped A with center 1."""
    A = np.array([[0.0, 1.0, 0.0],
                  [1.0, 1.0, 1.0],
                  [0.0, 1.0, 0.0]])
    return TemplateSet(A, np.zeros((3, 3)), 0.0)


def hebbian_train(pairs: list[tuple[Pattern, Pattern]]) -> TemplateSet:
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
    idx = neighbour_index(rows, cols, BOUNDARY_MINUS_ONE)
    cue = np.array([np.append(c.to_array(), -1.0) for c, _ in pairs])
    tgt = np.array([np.append(t.to_array(), -1.0) for _, t in pairs])
    # per pair, cell and offset: the target times the neighbour
    A = (tgt[:, :-1, None] * tgt[:, idx]).mean(axis=0)
    B = (tgt[:, :-1, None] * cue[:, idx]).mean(axis=0)
    return TemplateSet(quantize_templates(A.reshape(rows, cols, 3, 3)),
                       quantize_templates(B.reshape(rows, cols, 3, 3)),
                       np.zeros((rows, cols)))


def quantize_templates(weights: np.ndarray) -> np.ndarray:
    """Snap template-unit weights to representable synapse levels / 4."""
    return quantize_weight(weights * LEVELS_PER_UNIT_WEIGHT) / LEVELS_PER_UNIT_WEIGHT


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
    if rows < 1 or cols < 1:
        raise ValueError(f"template file: header rows = {rows}, cols = "
                         f"{cols}: both must be positive")
    if len(lines) != 1 + rows * cols:
        raise ValueError(f"template file: expected {rows * cols} cell lines, "
                         f"got {len(lines) - 1}")
    levels = set(representable_weights())
    cells = []
    for k, ln in enumerate(lines[1:], start=1):
        try:
            vals = [int(v) for v in ln.split()]
        except ValueError as exc:
            raise ValueError(f"template file: cell line {k}: {exc}") from exc
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
