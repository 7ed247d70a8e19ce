"""Energy, delay and area accounting plus design-space sweeps.

Spintronic per-operation energy has three components, all integrated from
stimulus to convergence:

  joule    - drive-current heating of every active synapse branch,
  leakage  - static read path (MTJ divider + inverter) per cell,
  dynamic  - gate charge/discharge of the drivers fed by flipped outputs.

The CMOS side of every comparison comes from the calibrated amplifier
model in `cmos` and is labeled "calibrated to published claims" in all
reports; it is not independently derived.

A sweep runs its (voltage, size, seed) points as members of grid
ensembles (`network.run_many`). Each member's run is bit for bit the one
it gets alone, so the records do not depend on how the points are
grouped, nor on the number of worker processes.

It formats the sweep outputs too: `sweep.csv` from `SweepRecord`s, and
`pareto.csv` and `comparison.txt` from `DesignPoint`s, either side's points.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import cmos as cmos_mod
from .core import Pattern, SimConfig, TemplateSet, add_noise
from .network import CellModel, CnnGrid, Trajectory, run_many
from .readpath import read_current
from .synapse import (BRANCH_SIZES, DriveModel, LEVELS_PER_UNIT_WEIGHT,
                      drive_current, unit_current)
from .transport import injected_spin_current

CSV_HEADER = ("v_drive_V,size_mult,seed,converged,delay_ns,"
              "e_joule_fJ,e_leak_fJ,e_dyn_fJ,e_total_fJ,area_um2")

# gross width units of one programmable 4-magnet synapse, in units of the
# unit-weight (level 4) driver: (4+2+1+1)/4
PROGRAMMABLE_GROSS_UNITS = sum(BRANCH_SIZES) / LEVELS_PER_UNIT_WEIGHT
TEMPLATE_TAPS = 9      # synapses of a full 3x3 A, and of B, per cell
PROGRAMMABLE_BITS = 3  # resolution of a programmable synapse
INVERTER_WIDTH = 4.0   # read inverter per cell [unit widths]
MTJ_FOOTPRINT = 900e-18     # [m^2] each, two per cell
MAGNET_FOOTPRINT = 900e-18  # [m^2], 30 nm x 30 nm
DELAY_WINDOW = 2.0  # largest delay ratio of a CMOS and a spintronic pair


@dataclass(frozen=True)
class EnergyParams:
    """Calibration knobs of the spintronic energy model."""

    c_gate_unit: float = 4e-15      # gate capacitance per unit driver width [F]
    inverter_leakage: float = 8e-6  # static read-path current per cell [A]


@dataclass(frozen=True)
class EnergyBreakdown:
    joule: float
    leakage: float
    dynamic: float

    def __post_init__(self):
        for name in ("joule", "leakage", "dynamic"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative energy component {name}")

    @property
    def total(self) -> float:
        return self.joule + self.leakage + self.dynamic


@dataclass(frozen=True)
class SweepRecord:
    v_drive: float
    size_mult: int
    seed: int
    converged: bool
    delay: float                  # [s]; t_max when not converged
    energy: EnergyBreakdown
    area: float                   # [m^2]


@dataclass(frozen=True)
class DesignPoint:
    """A design point; spin sets v_drive and size_mult, CMOS sets scale."""

    delay: float                  # [s]; t_max when not converged
    energy: float                 # [J] per operation
    area: float                   # [m^2]
    converged: bool = True
    v_drive: float | None = None
    size_mult: int | None = None
    scale: float | None = None


@dataclass(frozen=True)
class ScenarioHardware:
    """Synapse provisioning of one application, per cell.

    Fixed-weight synapses carry |w| width units each; programmable ones
    always drive all four quantized branches (gross 2 units), which is the
    cancellation overhead of small net weights.
    """

    n_synapses: float             # synapses per cell
    gross_units: float            # summed driver width units per cell
    driven_gates: float           # synapse gates fed by one cell's output
    magnets_per_synapse: int
    resolution_bits: int

    @classmethod
    def fixed(cls, templates: TemplateSet) -> "ScenarioHardware":
        A, B = np.asarray(templates.A), np.asarray(templates.B)
        nz_a = int(np.count_nonzero(A))
        nz_b = int(np.count_nonzero(B))
        gross = float(np.sum(np.abs(A)) + np.sum(np.abs(B)))
        return cls(nz_a + nz_b, gross, nz_a, 1, 1)

    @classmethod
    def programmable(cls) -> "ScenarioHardware":
        n = TEMPLATE_TAPS + TEMPLATE_TAPS
        return cls(n, n * PROGRAMMABLE_GROSS_UNITS, TEMPLATE_TAPS,
                   len(BRANCH_SIZES), PROGRAMMABLE_BITS)


@dataclass(frozen=True)
class Scenario:
    """One application run: clean image, templates, noise injection. The
    noisy image is both the initial state and the input."""

    name: str
    clean: Pattern
    templates: TemplateSet
    noise_fraction: float

    @property
    def hardware(self) -> ScenarioHardware:
        if self.templates.kind == "space-varying":
            return ScenarioHardware.programmable()
        return ScenarioHardware.fixed(self.templates)

    @property
    def n_cells(self) -> int:
        return self.clean.rows * self.clean.cols


def spin_energy(traj: Trajectory, drive: DriveModel, model: CellModel,
                ep: EnergyParams, hw: ScenarioHardware,
                t_max: float) -> EnergyBreakdown:
    """Energy breakdown of one run; non-converged runs integrate to t_max."""
    t = traj.convergence_time if traj.converged else t_max
    n_cells = traj.final_pattern.rows * traj.final_pattern.cols
    if t == 0.0:
        return EnergyBreakdown(0.0, 0.0, 0.0)
    joule = hw.gross_units * n_cells * drive.V_drive \
        * drive_current(drive) * t
    p_read = model.mtj.V_read * read_current(model.mtj, 1.0)
    p_inv = model.inverter.V_dd * ep.inverter_leakage
    leakage = n_cells * (p_read + p_inv) * t
    c_gate = ep.c_gate_unit * (hw.gross_units / max(hw.n_synapses, 1)) \
        * drive.size_multiplier
    dynamic = traj.flipped_pixels * hw.driven_gates * c_gate \
        * model.inverter.V_dd ** 2
    return EnergyBreakdown(joule, leakage, dynamic)


def spin_area(n_cells: int, hw: ScenarioHardware,
              size_multiplier: int) -> float:
    """Cell area: drivers + inverter (width x 8F) + MTJ and magnet footprints."""
    if n_cells <= 0 or size_multiplier < 1:
        raise ValueError("positive cell count and size required")
    w_min = cmos_mod.MIN_WIDTH_F * cmos_mod.FEATURE_SIZE
    driver_w = hw.gross_units * size_multiplier * w_min
    inverter_w = INVERTER_WIDTH * w_min
    transistor_area = (driver_w + inverter_w) * 8.0 * cmos_mod.FEATURE_SIZE
    magnets = 1 + hw.n_synapses * hw.magnets_per_synapse
    passive_area = 2 * MTJ_FOOTPRINT + magnets * MAGNET_FOOTPRINT
    return n_cells * (transistor_area + passive_area)


def _sweep_chunk(chunk) -> list[SweepRecord]:
    """One ensemble of (voltage, size, seed) points, stepped by `run_many`."""
    s, points, cfg, base_model, drive, ep = chunk
    members, drives = [], []
    for v, size, seed in points:
        d = dc_replace(drive, V_drive=v, size_multiplier=size)
        # (beta I_unit) size; beta (size I_unit), as from `drive_current`,
        # differs in the last bit at beta = 0.3 and size 3 or 5
        i0 = injected_spin_current(unit_current(d), base_model.channel) \
            * size
        noisy = add_noise(s.clean, s.noise_fraction, seed)
        grid = CnnGrid.from_pattern(noisy, noisy, s.templates)
        members.append((grid, dc_replace(cfg, seed=seed),
                        dc_replace(base_model, i0=i0)))
        drives.append(d)
    records = []
    for (v, size, seed), d, (_, _, model), traj in zip(
            points, drives, members, run_many(members, frames=False)):
        ok = traj.converged
        delay = traj.convergence_time if ok else cfg.t_max
        energy = spin_energy(traj, d, model, ep, s.hardware, cfg.t_max)
        area = spin_area(s.n_cells, s.hardware, size)
        records.append(SweepRecord(v, size, seed, ok, delay, energy, area))
    return records


def sweep_parts(s: Scenario, voltages, sizes, seeds, cfg: SimConfig,
                base_model: CellModel, drive: DriveModel, ep: EnergyParams,
                jobs: int = 1):
    """Run the scenario at every (voltage, size, seed) and yield the records
    of each ensemble as it finishes; i0 follows the IV model.

    Every point is one member of a grid ensemble (`network.run_many`,
    without frames). The points are dealt round-robin into min(jobs,
    points, usable CPUs) ensembles, so that the long sub-critical points
    spread over them; with more than one, the ensembles run in a pool of
    worker processes.
    Each member's run is bit for bit the one it gets alone, so the records
    do not depend on `jobs`.
    """
    voltages = sorted(voltages)
    if len(set(voltages)) < 3:
        raise ValueError("need at least 3 distinct sweep voltages")
    points = [(v, size, seed) for v in voltages for size in sizes
              for seed in seeds]
    n_chunks = min(jobs, len(points))
    if n_chunks > 1:
        n_chunks = min(n_chunks, len(os.sched_getaffinity(0)))
    chunks = [(s, points[k::n_chunks], cfg, base_model, drive, ep)
              for k in range(n_chunks)]
    if n_chunks > 1:
        import multiprocessing as mp
        with mp.Pool(n_chunks) as pool:
            yield from pool.imap_unordered(_sweep_chunk, chunks)
    else:
        yield from map(_sweep_chunk, chunks)


def aggregate(records: list[SweepRecord]) -> list[DesignPoint]:
    """Per (voltage, size), in order: median delay and mean energy over the
    converged seeds; with none, converged=False, delay=t_max, mean of all."""
    keys = sorted({(r.v_drive, r.size_mult) for r in records})
    out = []
    for v, size in keys:
        group = [r for r in records if r.v_drive == v and r.size_mult == size]
        good = [r for r in group if r.converged]
        if good:
            delay = float(np.median([r.delay for r in good]))
        else:
            delay = max(r.delay for r in group)
        energy = float(np.mean([r.energy.total for r in good or group]))
        out.append(DesignPoint(delay, energy, group[0].area, bool(good),
                               v_drive=v, size_mult=size))
    return out


def pareto(records: list[SweepRecord]) -> list[DesignPoint]:
    """Minimum-energy converged point per driver size, sorted by area."""
    if not records:
        raise ValueError("empty sweep")
    best = {}
    for p in aggregate(records):
        if p.converged and (p.size_mult not in best
                            or p.energy < best[p.size_mult].energy):
            best[p.size_mult] = p
    return sorted(best.values(), key=lambda p: p.area)


def compare(spin_frontier, cmos_points) -> dict:
    """Energy/area ratios at matched delay (nearest within DELAY_WINDOW).

    The CMOS points (`cmos_sweep`) are calibrated to published claims, not
    independently derived, and the report says so.
    """
    if not spin_frontier or not cmos_points:
        raise ValueError("both frontiers must be non-empty")
    spin = min(spin_frontier, key=lambda p: p.energy)
    pairs = [(c, max(c.delay, spin.delay) / min(c.delay, spin.delay))
             for c in cmos_points]
    cmos_pt, ratio = min(pairs, key=lambda p: p[1])
    if ratio > DELAY_WINDOW:
        raise ValueError(f"no CMOS record within {DELAY_WINDOW}x of the "
                         f"spintronic delay {spin.delay:.3e} s")
    return {
        "spin_energy_J": spin.energy,
        "spin_delay_s": spin.delay,
        "spin_area_m2": spin.area,
        "cmos_energy_J": cmos_pt.energy,
        "cmos_delay_s": cmos_pt.delay,
        "cmos_area_m2": cmos_pt.area,
        "energy_ratio": cmos_pt.energy / spin.energy,
        "area_ratio": cmos_pt.area / spin.area,
        "meets_10x": cmos_pt.energy / spin.energy >= 10.0,
        "cmos_label": "calibrated-to-published-claims",
    }


def cmos_sweep(s: Scenario, scales, amp: cmos_mod.AmplifierModel):
    """CMOS design points for the scenario (calibrated model)."""
    hw = s.hardware
    syn_factor = 1.5 if s.templates.kind == "space-varying" else 1.0
    out = []
    for scale in scales:
        energy, delay = cmos_mod.cmos_energy(amp, scale, s.n_cells,
                                             int(hw.n_synapses), syn_factor)
        area = cmos_mod.cmos_area(int(hw.n_synapses), hw.resolution_bits,
                                  s.n_cells)
        out.append(DesignPoint(delay, energy, area, scale=scale))
    return out


def records_to_csv(records: list[SweepRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        e = r.energy
        lines.append(",".join([
            f"{r.v_drive:.6g}",
            str(r.size_mult),
            str(r.seed),
            "1" if r.converged else "0",
            f"{r.delay * 1e9:.6g}",
            f"{e.joule * 1e15:.6g}",
            f"{e.leakage * 1e15:.6g}",
            f"{e.dynamic * 1e15:.6g}",
            f"{e.total * 1e15:.6g}",
            f"{r.area * 1e12:.6g}",
        ]))
    return "\n".join(lines) + "\n"


def frontier_to_csv(frontier: list[DesignPoint]) -> str:
    """pareto.csv: one row per frontier point of `pareto`, in its order."""
    lines = ["size_mult,v_drive_V,delay_ns,e_total_fJ,area_um2"]
    for p in frontier:
        lines.append(",".join([
            str(p.size_mult),
            f"{p.v_drive:.6g}",
            f"{p.delay * 1e9:.6g}",
            f"{p.energy * 1e15:.6g}",
            f"{p.area * 1e12:.6g}",
        ]))
    return "\n".join(lines) + "\n"


def comparison_report(report: dict, s: Scenario) -> str:
    """comparison.txt: one line per key of `compare`'s report, in its order."""
    lines = [
        f"Scenario: {s.name}",
        "",
        "Spintronic minimum-energy point versus the CMOS analog baseline at",
        f"matched delay (nearest pairing within {DELAY_WINDOW:g}x). "
        "The CMOS numbers come",
        "from a calibrated scaling model, not from independent circuit",
        "simulation.",
        "",
    ]
    for key, value in report.items():
        lines.append(f"{key}: {value:.6g}" if isinstance(value, float)
                     else f"{key}: {value}")
    return "\n".join(lines) + "\n"
