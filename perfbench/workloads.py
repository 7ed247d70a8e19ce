"""The benchmark workloads.

Each workload is a closed loop with one caller: it generates its inputs
from the workload seed, then runs rounds of the same operations in this
process through `spincnn.cli.main` (and, for the CMOS baseline, the
library function `cmos.integrate`), checking every output with `checks`.
An operation is one simulate call, one CMOS run, one sweep point or one
oracle check. Host time is measured around each call into spincnn; the
checks and file handling between calls are not timed.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from spincnn import cli, cmos

N_INPUTS = 20                      # noisy inputs per nf_filter / assoc_recall run
CELLS = 600                        # 30 x 20 glyph grid


@dataclass
class Tally:
    """Operations, outputs checked and host times of one run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)     # information, not errors
    round_s: list[float] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)
    op_s: dict[str, list[float]] = field(default_factory=dict)
    # simulated magnet-steps per host second, one entry per LLG call
    step_rates: list[float] = field(default_factory=list)
    nonconverged_steps: float = 0.0
    sweep_steps: float = 0.0

    def timed(self, kind: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        self.op_s.setdefault(kind, []).append(dt)
        self.round_s[-1] += dt
        return result, dt

    def fail(self, what: str, n: int = 1):
        self.failed += n
        self.problems.append(f"failed: {what}")

    def check(self, what: str, problems: list[str]):
        self.problems.extend(f"{what}: {p}" for p in problems)

    def median(self, kind: str) -> float:
        return statistics.median(self.op_s[kind])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """spincnn.cli.main with its console output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def read_glyph(root: Path, name: str) -> np.ndarray:
    return checks.read_pattern(
        (root / "src" / "spincnn" / "assets" / f"{name}.pat").read_text())


def flip(clean: np.ndarray, k: int, rng: np.random.Generator):
    """Clean pattern with k distinct pixels flipped, and the flip mask."""
    mask = np.zeros(clean.size, dtype=bool)
    mask[rng.choice(clean.size, size=k, replace=False)] = True
    mask = mask.reshape(clean.shape)
    return np.where(mask, -clean, clean), mask


def last_time_s(trajectory_csv: str) -> float:
    """Convergence time, or t_max, from the last trajectory row."""
    return float(trajectory_csv.strip().rsplit("\n", 1)[-1].split(",", 1)[0]) * 1e-9


class Workload:
    """`prepare()` makes the inputs under `work`; `run_round(i, tally)` runs
    round i; `details(tally)` gives the workload-specific figures."""

    name = ""
    nominal_round_s = 1.0   # round host time at the reference figures (README)

    def __init__(self, root: Path, seed: int, work: Path):
        self.root, self.seed, self.work = root, seed, work

    def out_dir(self, label: str) -> Path:
        path = self.work / label
        shutil.rmtree(path, ignore_errors=True)
        return path

    def write(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text)
        return str(path)


class NfFilter(Workload):
    """Noise filter on the `zero` glyph, spintronic and CMOS Chua."""

    name = "nf_filter"
    nominal_round_s = 1.3
    flips, dt = 60, 1e-12
    config = "[sim]\ndt = 1e-12\nt_max = 20e-9\n[drive]\ni0_over_ic = 10\n"

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.clean = read_glyph(self.root, "zero")
        self.cfg = self.write("nf.cfg", self.config)
        self.inputs = []
        for k in range(N_INPUTS):
            noisy, mask = flip(self.clean, self.flips, rng)
            path = self.write(f"nf_{k:02d}.pat", checks.write_pattern(noisy))
            self.inputs.append((noisy, mask, path, 1000 * self.seed + k))

    def run_round(self, i, tally):
        noisy, mask, path, llg_seed = self.inputs[i % N_INPUTS]
        out = self.out_dir("nf_sim")
        tally.attempted += 2
        (code, _), dt = tally.timed("simulate", run_cli, [
            "simulate", "--config", self.cfg, "--pattern", path,
            "--seed", str(llg_seed), "--out", str(out)])
        if code != 0:
            tally.fail(f"simulate on input {i % N_INPUTS} exit {code}")
        else:
            final = checks.read_pattern((out / "final.pat").read_text())
            tally.check(f"nf input {i % N_INPUTS}",
                        checks.check_noise_filter(self.clean, mask, final))
            t = last_time_s((out / "trajectory.csv").read_text())
            tally.step_rates.append(round(t / self.dt) * CELLS / dt)

        x = noisy.astype(float)
        (_, states, conv), _ = tally.timed(
            "cmos", cmos.integrate, x, x.copy(), cmos.cmos_noise_filter_templates(),
            cmos.ChuaParams(), dt=0.02, t_max=20.0, hold_time=0.5)
        if conv is None:
            tally.fail(f"CMOS run on input {i % N_INPUTS} did not settle")
        else:
            tally.check(f"CMOS input {i % N_INPUTS}", checks.check_cmos_filter(states[-1]))

    def details(self, tally):
        return {"run_s_p50": (tally.median("simulate"), "s"),
                "cmos_run_s_p50": (tally.median("cmos"), "s")}


class AssocRecall(Workload):
    """Hebbian templates (one->two, three->four), recalls of noisy `one`."""

    name = "assoc_recall"
    nominal_round_s = 1.9
    flips, dt = 4, 1e-12
    config = "[sim]\ndt = 1e-12\nt_max = 40e-9\n[drive]\ni0_over_ic = 10\n"

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        glyphs = {n: read_glyph(self.root, n) for n in ("one", "two", "three", "four")}
        # this identity of the bundled glyphs is what lets the
        # (one -> two, three -> four) templates recall `two` from a `one` cue
        if not np.array_equal(glyphs["four"],
                              glyphs["three"] * glyphs["one"] * glyphs["two"]):
            raise RuntimeError("bundled glyphs break four = three * one * two")
        paths = {n: self.write(f"{n}.pat", checks.write_pattern(g))
                 for n, g in glyphs.items()}
        self.tpl = str(self.work / "assoc.tpl")
        code, text = run_cli(["train", "--pairs", f"{paths['one']}:{paths['two']}",
                              f"{paths['three']}:{paths['four']}", "--out", self.tpl])
        if code != 0:
            raise RuntimeError(f"spincnn train failed: {text}")
        self.pairs = [(glyphs["one"], glyphs["two"]), (glyphs["three"], glyphs["four"])]
        self.a_lv, self.b_lv = checks.hebbian_levels(self.pairs)
        self.template_problems = checks.check_templates(
            Path(self.tpl).read_text(), self.a_lv, self.b_lv)
        self.target = glyphs["two"]
        self.cfg = self.write("assoc.cfg", self.config)
        self.inputs = []
        for k in range(N_INPUTS):
            cue, mask = flip(glyphs["one"], self.flips, rng)
            path = self.write(f"cue_{k:02d}.pat", checks.write_pattern(cue))
            self.inputs.append((cue, mask, path, 1000 * self.seed + k))

    def run_round(self, i, tally):
        if i == 0:
            tally.check("template file", self.template_problems)
        cue, mask, path, llg_seed = self.inputs[i % N_INPUTS]
        out = self.out_dir("assoc_sim")
        tally.attempted += 1
        (code, _), dt = tally.timed("simulate", run_cli, [
            "simulate", "--config", self.cfg, "--app", "assoc", "--templates",
            self.tpl, "--pattern", path, "--seed", str(llg_seed), "--out", str(out)])
        if code != 0:
            tally.fail(f"recall of cue {i % N_INPUTS} exit {code}")
            return
        final = checks.read_pattern((out / "final.pat").read_text())
        tally.check(f"recall of cue {i % N_INPUTS}", checks.check_recall(
            final, self.target, cue, mask, self.a_lv, self.b_lv))
        if not np.array_equal(final, self.target):
            tally.notes.append(f"recall of cue {i % N_INPUTS}: "
                               f"{int(np.sum(final != self.target))} pixels "
                               "differ from the target")
        t = last_time_s((out / "trajectory.csv").read_text())
        tally.step_rates.append(round(t / self.dt) * CELLS / dt)

    def details(self, tally):
        return {"run_s_p50": (tally.median("simulate"), "s")}


class Sweep(Workload):
    """Noise-filter voltage sweep, 2 seeds, Pareto point and CMOS comparison."""

    name = "sweep"
    nominal_round_s = 30.0
    # 0.05 V is sub-critical and never settles; the energy minimum is interior
    voltages = (0.05, 0.19, 0.27, 1.0)
    dt_ns, t_max_ns = 0.002, 50.0
    config = "[sim]\ndt = 2e-12\nt_max = 50e-9\n"

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.seeds = sorted(int(s) for s in rng.choice(1_000_000, size=2, replace=False))
        self.cfg = self.write("sweep.cfg", self.config)

    def run_round(self, i, tally):
        out = self.out_dir("sweep")
        points = len(self.voltages) * len(self.seeds)
        tally.attempted += points
        (code, text), dt = tally.timed("sweep", run_cli, [
            "sweep", "--config", self.cfg,
            "--voltages", ",".join(str(v) for v in self.voltages),
            "--seeds", ",".join(str(s) for s in self.seeds),
            "--jobs", "1", "--out", str(out)])
        if code != 0:
            tally.fail(f"sweep exit {code}: {text.strip()}", points)
            return
        sweep_csv = (out / "sweep.csv").read_text()
        tally.check("sweep", checks.check_sweep(
            sweep_csv, (out / "pareto.csv").read_text(),
            (out / "comparison.txt").read_text(), self.voltages, self.seeds,
            self.t_max_ns, CELLS, gross_units=5, n_syn=5))
        steps = 0
        for row in sweep_csv.strip().splitlines()[1:]:
            f = row.split(",")
            n = round(float(f[4]) / self.dt_ns)
            steps += n
            tally.nonconverged_steps += n if f[3] == "0" else 0
        tally.sweep_steps += steps
        tally.step_rates.append(steps * CELLS / dt)

    def details(self, tally):
        points = len(self.voltages) * len(self.seeds)
        return {"points_per_s": (points * len(tally.op_s["sweep"]) / sum(tally.op_s["sweep"]),
                                 "1/s")}


class Device(Workload):
    """Single-magnet oracles: critical current, switch statistics, channel."""

    name = "device"
    nominal_round_s = 3.6
    magnet = dict(length=30e-9, width=30e-9, thickness=2e-9, ms=5e5, ku=6e4,
                  alpha=0.01)
    i0_over_ic, dt, t_max, mz_threshold = 10.0, 1e-12, 20e-9, 0.9

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.length = float(rng.uniform(50e-9, 200e-9))
        self.l_sf = float(rng.uniform(300e-9, 600e-9))
        self.cfg = self.write("device.cfg", "".join([
            "[magnet]\n", *(f"{k} = {v!r}\n" for k, v in self.magnet.items()),
            f"[channel]\nlength = {self.length!r}\nl_sf = {self.l_sf!r}\n",
            f"[drive]\ni0_over_ic = {self.i0_over_ic!r}\n"]))
        i0 = self.i0_over_ic * checks.magnet_terms(self.magnet)[2]
        self.t_switch = checks.llg_switch_time(self.magnet, -i0, self.mz_threshold,
                                               self.t_max)

    def _oracle(self, check: str, tally: Tally) -> tuple[str | None, float]:
        """Printed report and host time of one oracle command."""
        tally.attempted += 1
        (code, text), dt = tally.timed(check, run_cli,
                                       ["oracle", check, "--config", self.cfg])
        if code != 0:
            tally.fail(f"oracle {check} exit {code}")
            return None, dt
        return text, dt

    def run_round(self, i, tally):
        text, _ = self._oracle("critical-current", tally)
        if text is not None:
            numeric = float(re.search(r"numeric bisection:\s+(\S+) A", text).group(1))
            tally.check("critical current",
                        checks.check_critical_current(numeric, self.magnet))
        text, dt = self._oracle("switch-stats", tally)
        if text is not None:
            t0 = float(re.search(r"switch time: (\S+) ns", text).group(1)) * 1e-9
            tally.check("switch time", checks.check_switch_time(t0, self.t_switch, self.dt))
            n, mean = re.search(r"mean over (\d+)/20 seeds .*?: (\S+) ns", text).groups()
            # one deterministic run, n switched realisations, 20 - n timeouts
            total = t0 + int(n) * float(mean) * 1e-9 + (20 - int(n)) * self.t_max
            tally.step_rates.append(round(total / self.dt) / dt)
        text, _ = self._oracle("transmission", tally)
        if text is not None:
            numeric = float(re.search(r"numeric BVP \(N=1024\):\s+(\S+)", text).group(1))
            tally.check("transmission",
                        checks.check_transmission(numeric, self.length, self.l_sf))

    def details(self, tally):
        return {"critical_current_s": (tally.median("critical-current"), "s"),
                "switch_stats_s": (tally.median("switch-stats"), "s")}


WORKLOADS = {w.name: w for w in (NfFilter, AssocRecall, Sweep, Device)}
