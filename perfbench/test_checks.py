"""Fast tests of the benchmark's output checks; they run no simulation.

Run with `python3 -m pytest perfbench -q` from the root of the repo. The
files under testdata/ are outputs spincnn wrote for the workloads' seed 0
inputs. Each check must accept them and reject a corrupted copy.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

import checks

DATA = Path(__file__).resolve().parent / "testdata"
ASSETS = Path(__file__).resolve().parent.parent / "src" / "spincnn" / "assets"
SWEEP_VOLTAGES = (0.05, 0.19, 0.27, 1.0)
SWEEP_SEEDS = (sorted(int(s) for s in np.random.default_rng(0).choice(
    1_000_000, size=2, replace=False)))


def pat(path: Path) -> np.ndarray:
    return checks.read_pattern(path.read_text())


def glyph(name: str) -> np.ndarray:
    return pat(ASSETS / f"{name}.pat")


def flip_one(y: np.ndarray, r: int, c: int) -> np.ndarray:
    out = y.copy()
    out[r, c] = -out[r, c]
    return out


# --- nf_filter ---------------------------------------------------------------

def test_noise_filter_accepts_program_output():
    clean = glyph("zero")
    mask = pat(DATA / "nf_input.pat") != clean
    assert int(mask.sum()) == 60
    assert checks.check_noise_filter(clean, mask, pat(DATA / "nf_final.pat")) == []


@pytest.mark.parametrize("r, c", [(0, 0), (15, 10), (29, 19), (3, 7)])
def test_noise_filter_rejects_one_flipped_pixel(r, c):
    clean = glyph("zero")
    mask = pat(DATA / "nf_input.pat") != clean
    final = flip_one(pat(DATA / "nf_final.pat"), r, c)
    assert checks.check_noise_filter(clean, mask, final)


def test_noise_filter_rejects_unrepaired_isolated_flip():
    clean = glyph("zero")
    mask = np.zeros_like(clean, dtype=bool)
    mask[0, 0] = True
    assert checks.check_noise_filter(clean, mask, clean) == []
    assert any("isolated" in p for p in
               checks.check_noise_filter(clean, mask, flip_one(clean, 0, 0)))


def test_cmos_filter_accepts_and_rejects():
    final = pat(DATA / "cmos_final.pat") * 1.2
    assert checks.check_cmos_filter(final) == []
    assert checks.check_cmos_filter(flip_one(final, 15, 10))


# --- assoc_recall ------------------------------------------------------------

@pytest.fixture(scope="module")
def hebbian():
    return checks.hebbian_levels([(glyph("one"), glyph("two")),
                                  (glyph("three"), glyph("four"))])


def test_template_file_matches_and_perturbed_level_is_rejected(hebbian):
    text = (DATA / "assoc.tpl").read_text()
    assert checks.check_templates(text, *hebbian) == []
    lines = text.splitlines()
    vals = lines[100].split()
    vals[4] = str(int(vals[4]) + 2)
    lines[100] = " ".join(vals)
    assert checks.check_templates("\n".join(lines), *hebbian)


def test_snap_levels_ties_away_from_zero():
    got = checks.snap_levels(np.array([-9.0, -3.0, -1.0, 0.4, 1.0, 3.0, 5.1]))
    assert got.tolist() == [-8, -4, -2, 0, 2, 4, 6]


def test_recall_accepts_target_and_rejects_wrong_target(hebbian):
    cue, final = pat(DATA / "assoc_cue.pat"), pat(DATA / "assoc_final.pat")
    flipped = cue != glyph("one")
    two = glyph("two")
    assert checks.check_recall(final, two, cue, flipped, *hebbian) == []
    assert checks.check_recall(final, glyph("four"), cue, flipped, *hebbian)
    assert checks.check_recall(glyph("four"), two, cue, flipped, *hebbian)
    assert checks.check_recall(flip_one(final, 15, 10), two, cue, flipped, *hebbian)


def test_recall_accepts_stable_defects_of_the_cue_noise(hebbian):
    one, two = glyph("one"), glyph("two")
    # an adjacent flipped pair that holds itself (drive +8 on both cells)
    pair_cue = flip_one(flip_one(one, 18, 12), 19, 12)
    pair = two.copy()
    pair[18:20, 12] = pair_cue[18:20, 12]
    assert (pair != two).sum() == 2
    assert checks.check_recall(pair, two, pair_cue, pair_cue != one, *hebbian) == []
    # the same pair without cue noise near it is an error
    far = np.zeros_like(one, dtype=bool)
    far[28, 3] = True
    assert checks.check_recall(pair, two, pair_cue, far, *hebbian)
    # a flip at (6, 5) leaves a chain of three cells with no drive at all;
    # they keep their cue value (seen for seed 54 cue 5)
    cue = flip_one(one, 6, 5)
    chain = two.copy()
    chain[3:6, 4] = cue[3:6, 4]
    assert (chain != two).sum() == 3
    assert checks.recall_drive(chain, cue, *hebbian)[3:6, 4].tolist() == [0, 0, 0]
    assert checks.check_recall(chain, two, cue, cue != one, *hebbian) == []


# --- sweep -------------------------------------------------------------------

def sweep_files():
    return [(DATA / f).read_text() for f in ("sweep.csv", "pareto.csv", "comparison.txt")]


def check(sweep_csv, pareto_csv, comparison):
    return checks.check_sweep(sweep_csv, pareto_csv, comparison, SWEEP_VOLTAGES,
                              SWEEP_SEEDS, 50.0, 600, gross_units=5, n_syn=5)


def perturb_column(csv: str, column: str, row: int, factor: float) -> str:
    lines = csv.splitlines()
    idx = lines[0].split(",").index(column)
    fields = lines[row].split(",")
    fields[idx] = f"{float(fields[idx]) * factor:.6g}"
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_sweep_accepts_program_output():
    assert check(*sweep_files()) == []


@pytest.mark.parametrize("row", [1, 4, 8])
def test_sweep_rejects_perturbed_joule_energy(row):
    sweep_csv, pareto_csv, comparison = sweep_files()
    bad = perturb_column(sweep_csv, "e_joule_fJ", row, 1.001)
    assert any("e_joule_fJ" in p for p in check(bad, pareto_csv, comparison))


def test_sweep_rejects_wrong_total_pareto_and_ratio():
    sweep_csv, pareto_csv, comparison = sweep_files()
    assert check(perturb_column(sweep_csv, "e_total_fJ", 5, 1.01), pareto_csv, comparison)
    assert check(sweep_csv, perturb_column(pareto_csv, "e_total_fJ", 1, 1.01), comparison)
    ratio = float(re.search(r"^energy_ratio: (\S+)$", comparison, re.M).group(1))
    assert check(sweep_csv, pareto_csv,
                 comparison.replace(f"energy_ratio: {ratio:.6g}",
                                    f"energy_ratio: {ratio * 1.01:.6g}"))


def test_sweep_rejects_median_delay_rising_with_voltage():
    sweep_csv, pareto_csv, comparison = sweep_files()
    lines = sweep_csv.splitlines()
    keys = lines[0].split(",")
    for i, ln in enumerate(lines[1:], 1):
        row = dict(zip(keys, ln.split(",")))
        if row["v_drive_V"] == "1":
            # 20 ns at 1 V, with the energies that delay implies
            joule = 5 * 600 * 1.0 * checks.unit_current(1.0) * 20e-9 * 1e15
            total = joule + float(row["e_leak_fJ"]) + float(row["e_dyn_fJ"])
            row.update(delay_ns="20", e_joule_fJ=f"{joule:.6g}", e_total_fJ=f"{total:.6g}")
            lines[i] = ",".join(row[k] for k in keys)
    problems = check("\n".join(lines) + "\n", pareto_csv, comparison)
    assert any("do not fall" in p for p in problems)
    assert not any("e_joule" in p or "e_total" in p for p in problems)


# --- device ------------------------------------------------------------------

MAGNET = dict(length=30e-9, width=30e-9, thickness=2e-9, ms=5e5, ku=6e4, alpha=0.01)


def test_critical_current_window():
    ic = checks.magnet_terms(MAGNET)[2]
    assert ic == pytest.approx(6.5708464e-6, rel=1e-6)
    assert checks.check_critical_current(1.17 * ic, MAGNET) == []
    assert checks.check_critical_current(0.9 * ic, MAGNET)
    assert checks.check_critical_current(2.1 * ic, MAGNET)


def test_switch_time_reference_matches_program_value():
    # `oracle switch-stats` prints 1.5560 ns for these defaults
    ic = checks.magnet_terms(MAGNET)[2]
    reference = checks.llg_switch_time(MAGNET, -10 * ic, 0.9, 20e-9)
    assert checks.check_switch_time(1.5560e-9, reference, 1e-12) == []


def test_switch_time_tolerance():
    assert checks.check_switch_time(1.5560e-9, 1.5576e-9, 1e-12) == []
    assert checks.check_switch_time(1.60e-9, 1.5576e-9, 1e-12)
    assert checks.check_switch_time(1.5560e-9, None, 1e-12)


def test_transmission_window():
    want = 1.0 / np.cosh(100e-9 / 420e-9)
    assert checks.check_transmission(want + 5e-7, 100e-9, 420e-9) == []
    assert checks.check_transmission(want + 2e-6, 100e-9, 420e-9)


def test_unit_current_anchors():
    assert checks.unit_current(10e-3) == pytest.approx(2.8e-6, rel=1e-12)
    assert checks.unit_current(1.0) == pytest.approx(75e-6, rel=1e-12)
