"""Digitally programmable magnetic synapse and driving-transistor model.

A programmable synapse uses four input magnets whose driving transistors
are sized 4x, 2x, 1x and 1x of the minimum size; the magnet orientations
(sign vector) encode the weight as the dot product with (4, 2, 1, 1).
Weight levels map to template units as one level step = i0 / 4, so a unit
template weight corresponds to level 4.

The driving transistor IV curve is a calibrated monotone table anchored to
unit-width currents of 2.8 uA at 10 mV and 75 uA at 1 V, interpolated
log-linearly (straight lines in log V - log I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

BRANCH_SIZES = (4, 2, 1, 1)
LEVELS_PER_UNIT_WEIGHT = 4  # level-to-template-unit conversion
MAX_LEVEL = sum(BRANCH_SIZES)  # the largest representable |level|


@dataclass(frozen=True)
class SynapseConfig:
    """Magnet orientations of the 4x, 2x, 1x, 1x branches."""

    signs: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.signs) != 4 or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be four values in {-1, +1}")


# all 16 sign vectors, +1 before -1 position by position
_CONFIGS = tuple(SynapseConfig(s) for s in product((1, -1), repeat=4))


def decode_config(c: SynapseConfig) -> int:
    return sum(s * w for s, w in zip(c.signs, BRANCH_SIZES))


def representable_weights() -> list[int]:
    """All achievable +-4 +-2 +-1 +-1 sums, ascending."""
    return sorted({decode_config(c) for c in _CONFIGS})


def encode_weight(w: int) -> SynapseConfig:
    """Canonical config for a representable weight.

    Canonical pick: the first matching sign vector when +1 is preferred
    over -1 at each position, scanned left to right (so +8 -> (+,+,+,+),
    0 -> (+,-,-,-), +4 -> (+,+,-,-)).
    """
    for c in _CONFIGS:
        if decode_config(c) == w:
            return c
    raise ValueError(f"weight {w} is not representable")


def quantize_weight(w_real):
    """Nearest representable level after clamping; ties round away from zero.

    Takes a float, giving an int, or an array, giving an int array.
    """
    w = np.asarray(w_real, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("weight must be finite")
    # not redundant: from |w| ~ 1e17 on, w - 8 and w + 8 round alike
    w = np.clip(w, -MAX_LEVEL, MAX_LEVEL)
    # ordered by falling |level|, so argmin's first match breaks a tie
    # away from zero
    levels = np.array(sorted(representable_weights(), key=abs, reverse=True))
    q = levels[np.argmin(np.abs(levels - w[..., None]), axis=-1)]
    return int(q) if q.ndim == 0 else q


@dataclass(frozen=True)
class DriveModel:
    """Driving transistor stack for one synapse branch group."""

    V_drive: float = 1.0
    size_multiplier: int = 1
    iv_table: tuple[tuple[float, float], ...] = ((10e-3, 2.8e-6), (1.0, 75e-6))

    def __post_init__(self):
        if self.size_multiplier < 1:
            raise ValueError("size_multiplier must be a positive integer")
        if len(self.iv_table) < 2:
            raise ValueError("iv_table needs at least two anchors")
        vs = [v for v, _ in self.iv_table]
        cs = [i for _, i in self.iv_table]
        if any(b <= a for a, b in zip(vs, vs[1:])) or \
           any(b <= a for a, b in zip(cs, cs[1:])):
            raise ValueError("iv_table must be strictly monotone in V and I")
        if any(v <= 0 for v in vs) or any(i <= 0 for i in cs):
            raise ValueError("iv_table entries must be positive")


def unit_current(d: DriveModel, v: float | None = None) -> float:
    """Unit-width charge current at drive voltage v (log-log interpolation)."""
    v = d.V_drive if v is None else v
    vs = [p[0] for p in d.iv_table]
    cs = [p[1] for p in d.iv_table]
    if not vs[0] <= v <= vs[-1]:
        raise ValueError(f"drive voltage {v} outside table span "
                         f"[{vs[0]}, {vs[-1]}]")
    for (v0, i0), (v1, i1) in zip(d.iv_table, d.iv_table[1:]):
        if v <= v1:
            t = (math.log(v) - math.log(v0)) / (math.log(v1) - math.log(v0))
            return math.exp(math.log(i0) + t * (math.log(i1) - math.log(i0)))
    raise AssertionError("unreachable")


def drive_current(d: DriveModel) -> float:
    """Charge current through a unit-weight synapse magnet [A]."""
    return d.size_multiplier * unit_current(d)
