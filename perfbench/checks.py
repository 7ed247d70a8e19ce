"""Output checks for the benchmark workloads.

Every expected value is recomputed here with NumPy/SciPy from the inputs
the benchmark generated; nothing in this module imports spincnn. Each
check returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.integrate import solve_ivp

# CODATA 2018, the values the LLG equation below is written in
Q = 1.602176634e-19
MU0 = 1.25663706212e-6
GAMMA = 1.76085963023e11
MU_B = 9.2740100783e-24

LEVELS = np.arange(-8, 9, 2)      # representable synapse levels
LEVELS_PER_UNIT_WEIGHT = 4
IV_ANCHORS = ((10e-3, 2.8e-6), (1.0, 75e-6))   # unit-width drive current [V, A]
CMOS_SCALES = (1, 2, 5, 10, 20, 50)
# default calibrated amplifier: neuron and per-synapse bias power [W],
# unit-scale delay and delay floor [s]
P_NEURON, P_SYNAPSE, DELAY_0, DELAY_FLOOR = 4e-5, 8e-6, 100e-9, 10e-9
CSV_REL_TOL = 2e-5                # two values printed to 6 significant digits


# ---------------------------------------------------------------------------
# patterns and 3x3 neighbourhoods

def read_pattern(text: str) -> np.ndarray:
    """'#' = +1, '.' = -1, one row per line."""
    rows = [ln.strip() for ln in text.splitlines() if ln.strip()]
    return np.array([[1 if ch == "#" else -1 for ch in ln] for ln in rows],
                    dtype=np.int64)


def write_pattern(y: np.ndarray) -> str:
    return "".join("".join("#" if v > 0 else "." for v in row) + "\n"
                   for row in y)


def windows3(x: np.ndarray, border: float) -> np.ndarray:
    """(rows, cols, 9) row-major 3x3 neighbourhoods with a constant border."""
    padded = np.pad(x, 1, constant_values=border)
    win = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
    return win.reshape(x.shape + (9,))


def window_sum5(a: np.ndarray, border: int) -> np.ndarray:
    padded = np.pad(a.astype(int), 2, constant_values=border)
    return np.lib.stride_tricks.sliding_window_view(padded, (5, 5)).sum(axis=(-2, -1))


def _cross4(y: np.ndarray) -> np.ndarray:
    """Sum of the four edge neighbours, -1 border."""
    return windows3(y, -1)[..., [1, 3, 5, 7]].sum(axis=-1)


# ---------------------------------------------------------------------------
# nf_filter

def check_noise_filter(clean: np.ndarray, flipped: np.ndarray,
                       final: np.ndarray) -> list[str]:
    """Spintronic cross-template filter: what the majority rule promises."""
    problems = []
    if final.shape != clean.shape:
        return [f"final pattern shape {final.shape} != {clean.shape}"]
    near = window_sum5(flipped, 0)
    isolated = flipped & (near == 1) & (np.abs(window_sum5(clean, -1)) == 25)
    if np.any(isolated & (final != clean)):
        problems.append(f"{int(np.sum(isolated & (final != clean)))} isolated "
                        "flips not repaired")
    if np.any((near == 0) & (final != clean)):
        problems.append(f"{int(np.sum((near == 0) & (final != clean)))} pixels "
                        "changed in flip-free 5x5 regions")
    if not np.array_equal(np.sign(final + _cross4(final)), final):
        problems.append("final pattern is not a fixed point of the cross rule")
    return problems


def check_cmos_filter(x_final: np.ndarray) -> list[str]:
    """Chua baseline: settled sign pattern is a fixed point of 2 self + 4."""
    y = np.where(x_final > 0, 1, -1)
    if not np.array_equal(np.sign(2 * y + _cross4(y)), y):
        return ["CMOS sign pattern is not a fixed point of sign(2 self + 4 neighbours)"]
    return []


# ---------------------------------------------------------------------------
# assoc_recall

def snap_levels(w: np.ndarray) -> np.ndarray:
    """Nearest representable level after clamping; ties away from zero."""
    w = np.clip(w, LEVELS[0], LEVELS[-1])
    dist = np.abs(w[..., None] - LEVELS) - 1e-9 * np.abs(LEVELS)
    return LEVELS[np.argmin(dist, axis=-1)]


def hebbian_levels(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Outer-product A and B levels, (rows, cols, 9), -1 virtual border."""
    acc_a = sum(t[..., None] * windows3(t, -1) for _, t in pairs)
    acc_b = sum(t[..., None] * windows3(c, -1) for c, t in pairs)
    scale = LEVELS_PER_UNIT_WEIGHT / len(pairs)
    return snap_levels(acc_a * scale), snap_levels(acc_b * scale)


def check_templates(text: str, a_lv: np.ndarray, b_lv: np.ndarray) -> list[str]:
    """Template file rows are 9 A, 9 B and 1 bias level per cell."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows, cols = (int(v) for v in lines[0].split())
    if (rows, cols) != a_lv.shape[:2] or len(lines) != 1 + rows * cols:
        return [f"template file is {rows}x{cols} with {len(lines) - 1} cell lines"]
    cells = np.array([[int(v) for v in ln.split()] for ln in lines[1:]])
    want = np.concatenate([a_lv.reshape(-1, 9), b_lv.reshape(-1, 9),
                           np.zeros((rows * cols, 1), dtype=int)], axis=1)
    bad = int(np.sum(np.any(cells != want, axis=1)))
    return [f"{bad} template cells differ from the Hebbian levels"] if bad else []


def recall_drive(final: np.ndarray, cue: np.ndarray, a_lv: np.ndarray,
                 b_lv: np.ndarray) -> np.ndarray:
    """A y + B u in levels, -1 border; the input u is the cue."""
    return np.sum(a_lv * windows3(final, -1) + b_lv * windows3(cue, -1), axis=-1)


def check_recall(final: np.ndarray, target: np.ndarray, cue: np.ndarray,
                 flipped: np.ndarray, a_lv: np.ndarray, b_lv: np.ndarray) -> list[str]:
    """A fixed point of sign(A y + B u) that equals the target except at
    stable defects the cue noise leaves. Like the noise filter, recall can
    keep a flipped cluster that holds itself, inside the 5x5 window of a
    flipped cue pixel; and a flip can leave cells with a drive of exactly
    0, which get no current and keep their cue value (such ties can chain
    further out)."""
    problems = []
    drive = recall_drive(final, cue, a_lv, b_lv)
    if np.any(final * drive < 0):
        problems.append(f"recall is not a fixed point of sign(A y + B u): "
                        f"{int(np.sum(final * drive < 0))} cells oppose their drive")
    defect = (window_sum5(flipped, 0) > 0) | ((drive == 0) & (final == cue))
    bad = (final != target) & ~defect
    if np.any(bad):
        problems.append(f"recall differs from the target at {int(np.sum(bad))} "
                        "pixels that are neither at the cue noise nor undriven")
    return problems


# ---------------------------------------------------------------------------
# sweep

def unit_current(v: float) -> float:
    """Log-log interpolation between the two drive-transistor anchors."""
    (v0, i0), (v1, i1) = IV_ANCHORS
    t = math.log(v / v0) / math.log(v1 / v0)
    return math.exp(math.log(i0) + t * math.log(i1 / i0))


def _close(a: float, b: float, rel: float = CSV_REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _csv(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, (float(v) for v in ln.split(",")))) for ln in lines[1:]]


def cmos_records(n_cells: int, n_syn: int) -> list[tuple[float, float]]:
    """(delay [s], energy [J]) of the calibrated CMOS amplifier per scale."""
    out = []
    for scale in CMOS_SCALES:
        power = n_cells * (P_NEURON + n_syn * P_SYNAPSE) * scale
        delay = max(DELAY_0 / scale, DELAY_FLOOR)
        out.append((delay, power * delay))
    return out


def check_sweep(sweep_csv: str, pareto_csv: str, comparison: str,
                voltages, seeds, t_max_ns: float, n_cells: int,
                gross_units: float, n_syn: int) -> list[str]:
    """Energy accounting, delay ordering, Pareto point and CMOS ratio."""
    problems = []
    rows = _csv(sweep_csv)
    if sorted((r["v_drive_V"], r["seed"]) for r in rows) != \
            sorted((v, s) for v in voltages for s in seeds):
        return ["sweep.csv does not hold one row per (voltage, seed)"]
    for r in rows:
        v, delay = r["v_drive_V"], r["delay_ns"] * 1e-9
        joule = gross_units * n_cells * v * unit_current(v) * delay * 1e15
        if not _close(r["e_joule_fJ"], joule):
            problems.append(f"e_joule_fJ {r['e_joule_fJ']} != {joule:.6g} at {v} V")
        parts = r["e_joule_fJ"] + r["e_leak_fJ"] + r["e_dyn_fJ"]
        if not _close(r["e_total_fJ"], parts):
            problems.append(f"e_total_fJ {r['e_total_fJ']} != sum {parts:.6g} at {v} V")
        if not r["converged"] and r["delay_ns"] != t_max_ns:
            problems.append(f"non-converged point at {v} V reports delay {r['delay_ns']} ns")
    # per voltage: median delay and mean energy of the converged seeds
    # (one seed alone can settle slower at a higher voltage)
    agg = []
    for v in sorted(set(voltages)):
        good = [r for r in rows if r["v_drive_V"] == v and r["converged"]]
        if good:
            agg.append((float(np.mean([r["e_total_fJ"] for r in good])), v,
                        float(np.median([r["delay_ns"] for r in good]))))
    if not agg:
        return problems + ["no sweep point converged"]
    delays = [d for _, _, d in agg]
    if any(b >= a for a, b in zip(delays, delays[1:])):
        problems.append(f"median converged delays {delays} ns do not fall with voltage")
    energy, v_best, delay = min(agg)
    frontier = _csv(pareto_csv)
    if len(frontier) != 1 or frontier[0]["v_drive_V"] != v_best \
            or not _close(frontier[0]["delay_ns"], delay) \
            or not _close(frontier[0]["e_total_fJ"], energy):
        problems.append(f"pareto.csv != recomputed point ({v_best} V, "
                        f"{delay:.6g} ns, {energy:.6g} fJ)")
    pairs = [(max(d, delay * 1e-9) / min(d, delay * 1e-9), e)
             for d, e in cmos_records(n_cells, n_syn)]
    ratio_d, cmos_e = min(pairs, key=lambda p: p[0])
    match = re.search(r"^energy_ratio: (\S+)$", comparison, re.M)
    want = cmos_e / (energy * 1e-15)
    if ratio_d > 2.0 or match is None or not _close(float(match.group(1)), want):
        problems.append(f"comparison.txt energy_ratio != recomputed {want:.6g}")
    return problems


# ---------------------------------------------------------------------------
# device

def magnet_terms(m: dict) -> tuple[float, float, float]:
    """(Hk [A/m], Ns, closed-form critical current alpha gamma mu0 Hk q Ns [A])."""
    hk = 2.0 * m["ku"] / (MU0 * m["ms"])
    ns = m["ms"] * m["length"] * m["width"] * m["thickness"] / MU_B
    return hk, ns, m["alpha"] * GAMMA * MU0 * hk * Q * ns


def llg_switch_time(m: dict, i_s: float, mz_threshold: float,
                    t_max: float, tilt_deg: float = 1.0) -> float | None:
    """T = 0 first passage of m_z through -mz_threshold from a tilted +z.

    dm/dt = -gamma mu0 (m x H) + alpha (m x dm/dt) + I_s_perp / (q Ns),
    H = (0, 0, Hk m_z), solved for dm/dt and integrated with solve_ivp.
    """
    hk, ns, _ = magnet_terms(m)
    alpha, torque = m["alpha"], i_s / (Q * ns)
    z = np.array([0.0, 0.0, 1.0])

    def rhs(_, y):
        g = -GAMMA * MU0 * np.cross(y, hk * y[2] * z) \
            + torque * (z - y[2] * y)
        return (g + alpha * np.cross(y, g) + alpha ** 2 * np.dot(y, g) * y) \
            / (1.0 + alpha ** 2)

    def crossed(_, y):
        return y[2] + mz_threshold
    crossed.terminal, crossed.direction = True, -1
    th = math.radians(tilt_deg)
    sol = solve_ivp(rhs, (0.0, t_max), [math.sin(th), 0.0, math.cos(th)],
                    method="DOP853", rtol=1e-10, atol=1e-12, events=crossed)
    return float(sol.t_events[0][0]) if sol.t_events[0].size else None


def check_critical_current(numeric: float, m: dict) -> list[str]:
    ratio = numeric / magnet_terms(m)[2]
    if not 1.0 <= ratio <= 2.0:
        return [f"bisected critical current is {ratio:.4f}x the closed form"]
    return []


def check_switch_time(t_program: float, t_reference: float | None,
                      dt: float) -> list[str]:
    """Heun steps of dt against the adaptive reference: the program reports
    the first step past the crossing and carries O(dt^2) error per step."""
    if t_reference is None or \
            abs(t_program - t_reference) > max(2 * dt, 2.5e-3 * t_reference):
        return [f"T = 0 switch time {t_program:.4e} s != reference {t_reference}"]
    return []


def check_transmission(numeric: float, length: float, l_sf: float) -> list[str]:
    want = 1.0 / math.cosh(length / l_sf)
    if abs(numeric - want) > 1e-6:
        return [f"BVP transmission {numeric} != 1/cosh(L/l_sf) = {want:.10f}"]
    return []
