"""Shared domain types, pattern I/O, seeded noise injection, the 3x3
neighbourhood operator of the CNN template sum and the settle loop.

Pixel convention, used everywhere in the package: +1 = black = magnetization
pointing up (+z), -1 = white = magnetization pointing down (-z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constants import MU0, MU_B

# Named sub-streams of the global seed; every consumer of randomness draws
# from a Philox counter keyed by (seed, stream, step) so that trajectories
# are reproducible regardless of evaluation order.
STREAM_PATTERN_NOISE = 1
STREAM_LLG = 2
STREAM_SWITCH = 3

MAX_DT = 10e-12  # step-size stability guard of the LLG integrators [s]


def make_rng(seed: int, stream: int, step: int = 0) -> np.random.Generator:
    """Counter-based generator for a named (seed, stream, step) triple."""
    bg = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, stream],
                                       dtype=np.uint64),
                          counter=np.array([0, 0, 0, step], dtype=np.uint64))
    return np.random.Generator(bg)


@dataclass(frozen=True)
class MagnetParams:
    """Geometry and material parameters of one macrospin magnet.

    Derived quantities (volume, magneton count, anisotropy field) are
    recomputed from the primary fields on every access so they can never
    go stale.
    """

    length: float = 30e-9      # [m]
    width: float = 30e-9       # [m]
    thickness: float = 2e-9    # [m]
    Ms: float = 5e5            # saturation magnetization [A/m]
    Ku: float = 6e4            # uniaxial perpendicular anisotropy [J/m^3]
    alpha: float = 0.01        # Gilbert damping

    def __post_init__(self):
        for name in ("length", "width", "thickness", "Ms", "Ku", "alpha"):
            if getattr(self, name) <= 0:
                raise ValueError(f"MagnetParams.{name} must be > 0")
        if self.alpha >= 1:
            raise ValueError("MagnetParams.alpha must be < 1")

    @property
    def volume(self) -> float:
        """Magnet volume [m^3]."""
        return self.length * self.width * self.thickness

    @property
    def Ns(self) -> float:
        """Number of magnetons, Ms * V / mu_B."""
        return self.Ms * self.volume / MU_B

    @property
    def Hk(self) -> float:
        """Uniaxial anisotropy field 2 Ku / (mu0 Ms) [A/m]."""
        return 2.0 * self.Ku / (MU0 * self.Ms)


@dataclass(frozen=True)
class Pattern:
    """Rectangular grid of bipolar pixels stored row-major."""

    rows: int
    cols: int
    pixels: tuple[int, ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("Pattern dimensions must be positive")
        if len(self.pixels) != self.rows * self.cols:
            raise ValueError("pixel count does not match rows * cols")
        if any(p not in (-1, 1) for p in self.pixels):
            raise ValueError("pixels must be -1 or +1")

    @classmethod
    def from_array(cls, arr) -> "Pattern":
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError("pattern array must be 2-D")
        return cls(arr.shape[0], arr.shape[1],
                   tuple(int(v) for v in arr.reshape(-1)))

    def to_array(self) -> np.ndarray:
        return np.array(self.pixels, dtype=np.int8).reshape(self.rows, self.cols)


@dataclass(frozen=True)
class TemplateSet:
    """CNN template weights: 3x3 feedback A, 3x3 feedforward B, bias I.

    Space-invariant sets hold a single (A, B, I) triple with A, B of shape
    (3, 3); space-varying sets hold one triple per cell with A, B of shape
    (rows, cols, 3, 3) and I of shape (rows, cols).
    """

    A: np.ndarray
    B: np.ndarray
    I: np.ndarray | float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if A.shape != B.shape:
            raise ValueError("A and B must have the same shape")
        if A.shape == (3, 3):
            object.__setattr__(self, "I", float(self.I))
        elif A.ndim == 4 and A.shape[2:] == (3, 3):
            I = np.asarray(self.I, dtype=float)
            if I.shape != A.shape[:2]:
                raise ValueError("I must have one entry per cell")
            object.__setattr__(self, "I", I)
        else:
            raise ValueError("templates must be 3x3 or (rows, cols, 3, 3)")

    @property
    def kind(self) -> str:
        return "space-invariant" if self.A.shape == (3, 3) else "space-varying"

    def per_cell(self, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcast to per-cell arrays of shape (rows, cols, 3, 3) / (rows, cols)."""
        if self.kind == "space-invariant":
            A = np.broadcast_to(self.A, (rows, cols, 3, 3))
            B = np.broadcast_to(self.B, (rows, cols, 3, 3))
            I = np.full((rows, cols), self.I)
            return A, B, I
        if self.A.shape[:2] != (rows, cols):
            raise ValueError("template grid shape does not match pattern shape")
        return self.A, self.B, self.I


# Boundary rules for the cells outside the grid: a virtual cell with output
# and input -1, or a copy of the nearest edge cell.
BOUNDARY_MINUS_ONE = "minus-one"
BOUNDARY_ZERO_FLUX = "zero-flux"


def neighbour_index(rows: int, cols: int, boundary: str) -> np.ndarray:
    """(rows * cols, 9) row-major index of every cell's 3x3 neighbourhood.

    Offsets run row-major from (-1, -1) to (+1, +1), as in a 3x3 template.
    Zero-flux points an outside neighbour at its edge copy; minus-one points
    it at index rows * cols, the virtual -1 cell held after the grid.
    """
    cells = np.arange(rows * cols).reshape(rows, cols)
    if boundary == BOUNDARY_ZERO_FLUX:
        padded = np.pad(cells, 1, mode="edge")
    else:
        padded = np.pad(cells, 1, constant_values=rows * cols)
    return sliding_window_view(padded, (3, 3)).reshape(rows * cols, 9)


def template_operator(templates: TemplateSet, u: np.ndarray, boundary: str
                      ) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """(W, c) with neighbour_sum(W, y) + c the flat template drive of every
    cell, sum(A y_neighbours) + sum(B u_neighbours) + I, for outputs y.

    W = (w, idx): the A weights and the `neighbour_index` of every cell,
    (9, N) each, with a zero weight on the minus-one border. c holds B u + I
    and the -1 border terms, since u is fixed for a run. With weights that
    are multiples of 1/4 and y, u in {-1, +1}, every partial sum is exact
    in float64, so any summation order gives the same bits.
    """
    rows, cols = u.shape
    n = rows * cols
    A, B, I = templates.per_cell(rows, cols)
    a, b = A.reshape(n, 9), B.reshape(n, 9)
    idx = neighbour_index(rows, cols, boundary)
    border = idx == n
    # in c, the virtual border cell has output and input -1 in every step
    c = I.reshape(n) + (b * np.append(u, -1.0)[idx] - a * border).sum(axis=1)
    return (np.where(border, 0.0, a).T.copy(), idx.T.copy()), c


def neighbour_sum(W: tuple, y: np.ndarray) -> np.ndarray:
    """W y for outputs y of shape (N,) or (members, N), W = (w, idx) from
    `template_operator` with w stacked to (members, 9, N) for members. The
    sum runs over the tap axis, not the contiguous one, so the taps add in
    row-major offset order, as in a row-by-row sparse product."""
    w, idx = W
    y = np.concatenate([y, np.zeros(y.shape[:-1] + (1,))], axis=-1)
    return (np.take(y, idx, axis=-1) * w).sum(axis=-2)


def settle(step, settled, sample, stop, dt: float, t_max: float,
           hold_time: float, sample_interval: float) -> None:
    """Call `step()` until every member has stayed settled for hold_time,
    or t_max.

    The caller steps one or more members together, and each keeps its
    own hold count. `settled()` returns one bool per running member, in
    order. The start counts toward the hold, so a settled start with
    hold_time = 0 stops at once. `sample(t, which)` is called with the
    indices of the running members to sample at time t: every running
    member at t = 0, every sample interval and at t_max, and the members
    that converge at a step between samples. `stop(which, t, converged)`
    then hands members back, converged or at t_max: they leave the running
    set, and indices passed afterwards count only the members still
    running.
    """
    sample_every = max(int(round(sample_interval / dt)), 1)
    hold_steps = max(int(round(hold_time / dt)), 0)
    n_steps = int(round(t_max / dt))
    held = [int(ok) for ok in settled()]
    n, t = 0, 0.0
    sample(t, list(range(len(held))))
    sampled = True
    while True:
        if max(held) > hold_steps:
            done = [i for i, h in enumerate(held) if h > hold_steps]
            if not sampled:
                sample(t, done)
            stop(done, t, True)
            held = [h for h in held if h <= hold_steps]
            if not held:
                return
        if n == n_steps:
            stop(list(range(len(held))), t, False)
            return
        step()
        n += 1
        t = n * dt
        held = [h + 1 if ok else 0 for h, ok in zip(held, settled())]
        sampled = n % sample_every == 0 or n == n_steps
        if sampled:
            sample(t, list(range(len(held))))


@dataclass(frozen=True)
class SimConfig:
    """Time stepping, temperature and convergence-detection settings."""

    dt: float = 1e-12            # [s]
    t_max: float = 20e-9         # [s]
    temperature: float = 300.0   # [K]
    seed: int = 1
    hold_time: float = 0.5e-9    # stability window for convergence [s]
    mz_threshold: float = 0.9    # binary read threshold on |m_z|
    sample_interval: float = 0.1e-9  # trajectory frame spacing [s]

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.dt > MAX_DT:
            raise ValueError(f"dt = {self.dt} exceeds stability guard {MAX_DT}")
        if self.t_max < self.dt:
            raise ValueError("t_max must be >= dt")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.mz_threshold < 1:
            raise ValueError("mz_threshold must be in (0, 1)")
        if self.hold_time < 0:
            raise ValueError("hold_time must be >= 0")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be > 0")
        for name in ("t_max", "hold_time", "sample_interval"):
            value = getattr(self, name)
            if not math.isfinite(value / self.dt):
                raise ValueError(f"{name} = {value:g} s over dt = {self.dt:g} "
                                 "s overflows the step count")


# ---------------------------------------------------------------------------
# Pattern text format: '#' = +1 (black), '.' = -1 (white), one row per line.

def load_pattern(text: str) -> Pattern:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty pattern text")
    cols = len(lines[0])
    pixels = []
    for i, ln in enumerate(lines):
        if len(ln) != cols:
            raise ValueError(f"ragged row {i + 1}: expected {cols} columns, got {len(ln)}")
        for ch in ln:
            if ch == "#":
                pixels.append(1)
            elif ch == ".":
                pixels.append(-1)
            else:
                raise ValueError(f"illegal character {ch!r} in row {i + 1}")
    return Pattern(len(lines), cols, tuple(pixels))


def save_pattern(p: Pattern) -> str:
    return "".join("".join("#" if v == 1 else "." for v in row) + "\n"
                   for row in p.to_array())


def add_noise(p: Pattern, fraction: float, seed: int) -> Pattern:
    """Flip exactly round(fraction * N) distinct pixels, chosen uniformly."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    n = p.rows * p.cols
    k = int(round(fraction * n))
    rng = make_rng(seed, STREAM_PATTERN_NOISE)
    idx = rng.choice(n, size=k, replace=False)
    pixels = list(p.pixels)
    for i in idx:
        pixels[i] = -pixels[i]
    return Pattern(p.rows, p.cols, tuple(pixels))


def frame_to_pgm(values: np.ndarray) -> str:
    """ASCII P2 image of per-cell values in [-1, 1]; 0 = white, 255 = black."""
    values = np.asarray(values, dtype=float)
    gray = np.clip(np.rint((values + 1.0) * 127.5), 0, 255).astype(int)
    rows, cols = gray.shape
    lines = [f"P2", f"{cols} {rows}", "255"]
    for r in range(rows):
        lines.append(" ".join(str(v) for v in gray[r]))
    return "\n".join(lines) + "\n"
