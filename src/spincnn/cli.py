"""Command-line entry point.

Subcommands:

  simulate  - run one application (noise-filter or assoc) on a pattern,
              emitting a trajectory CSV, frame images, the final pattern
              and a run manifest.
  train     - Hebbian training of space-varying templates from cue:target
              pattern pairs, written as a plain-text template file.
  sweep     - voltage/size design-space sweep with a Pareto frontier and a
              comparison report against the calibrated CMOS baseline.
  oracle    - cross-checks of analytically known quantities against their
              independent numeric computations; exits nonzero on
              disagreement.

Exit codes, the same for every command: 0 converged or agreed; 2 not
converged (`simulate`, or a `sweep` with no converged point); 1 any error,
an oracle that disagrees included. Every user error, a usage error
included, is a ValueError, printed as one `error:` line on stderr.

This module formats `trajectory.csv`; `analysis` formats the three sweep
outputs, `core` the frames and patterns and `network` the template file.

All CSV output is byte-stable across reruns with identical flags and seed
(including ``--jobs > 1``); wall-clock timestamps appear only in the
manifest. The configuration file may also be supplied through the
``SPINCNN_CONFIG`` environment variable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import GLYPHS, load_glyph
from .analysis import (Scenario, cmos_sweep, compare, comparison_report,
                       frontier_to_csv, pareto, records_to_csv, sweep_parts)
from .config import FullConfig, parse_config
from .core import Pattern, frame_to_pgm, load_pattern, save_pattern
from .dynamics import (analytic_critical_current, critical_spin_current,
                       switch_times, t0_crossing_step)
from .network import (CnnGrid, hebbian_train, load_templates,
                      noise_filter_templates, run, save_templates)
from .readpath import divider_voltage, read_cell
from .transport import numeric_transmission, spin_transmission

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2

MAX_FRAME_IMAGES = 16


# ---------------------------------------------------------------------------
# plumbing

def _read(path: str, parse, what: str):
    """parse(text) of a UTF-8 file; a failure names `what` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ValueError(f"{what} {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ValueError(f"{what} {path}: {exc}") from exc


def _load_config(path: str | None) -> tuple[FullConfig, str]:
    """Resolve --config / SPINCNN_CONFIG / defaults; returns (config, digest)."""
    path = path or os.environ.get("SPINCNN_CONFIG")
    if path is None:
        return FullConfig(), "defaults"
    cfg, text = _read(path, lambda text: (parse_config(text), text), "config")
    return cfg, hashlib.sha256(text.encode()).hexdigest()


def _load_pattern_arg(value: str) -> Pattern:
    """A pattern file path, or the name of a bundled glyph."""
    if value in GLYPHS and not os.path.exists(value):
        return load_glyph(value)
    return _read(value, load_pattern, "pattern")


def _check_out_dir(path: str, file: bool = False):
    """Before a run: --out (the directory of it, for a `file`), or its
    nearest existing parent, is a directory."""
    if not path:
        raise ValueError("--out: empty path")
    head = os.path.abspath(path)
    if file:
        head = os.path.dirname(head)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise ValueError(f"--out {path}: {head} is not a directory")


def _demo_i0(full: FullConfig) -> float:
    """Unit-weight spin current from config: a multiple of the analytic
    critical current."""
    return full.drive.i0_over_ic * analytic_critical_current(full.magnet)


class _Manifest:
    """Run manifest: command line, config digest, seed, wall time, outputs."""

    def __init__(self, out_dir: str, argv: list, digest: str, seed: int | None):
        self.out_dir = out_dir
        self.data = {
            "command_line": argv,
            "config_digest": digest,
            "seed": seed,
            "start_time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "end_time": None,
            "outputs": [],
        }

    def add(self, name: str, text: str):
        """Write one output file, making out_dir if need be, and list it."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.data["outputs"].append(name)

    def write(self):
        self.data["end_time"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2)
            fh.write("\n")


def _trajectory_csv(traj, model) -> str:
    """Per-sample summary: saturation and distance from the initial pattern."""
    init = traj.initial_pattern.to_array()
    lines = ["time_ns,mean_mz,min_abs_mz,n_black,hamming_to_initial"]
    for t, frame in zip(traj.times, traj.mz):
        logic = model.logic(frame)
        lines.append(",".join([
            f"{t * 1e9:.6g}",
            f"{float(np.mean(frame)):.6g}",
            f"{float(np.min(np.abs(frame))):.6g}",
            str(int(np.sum(logic == 1))),
            str(int(np.sum(logic != init))),
        ]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args, argv: list[str]) -> int:
    if args.templates and args.app != "assoc":
        raise ValueError("--templates needs --app assoc")
    if args.app == "assoc" and not args.templates:
        raise ValueError("assoc requires --templates (from `spincnn train`)")
    full, digest = _load_config(args.config)
    cfg = full.sim
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    pattern = _load_pattern_arg(args.pattern)
    _check_out_dir(args.out)
    model = full.cell_model(_demo_i0(full))

    if args.app == "assoc":
        templates = _read(args.templates, load_templates, "templates")
        ta = np.asarray(templates.A)
        if ta.shape[:2] != (pattern.rows, pattern.cols):
            raise ValueError(f"templates {args.templates}: trained for "
                             f"{ta.shape[0]}x{ta.shape[1]} grids, pattern is "
                             f"{pattern.rows}x{pattern.cols}")
    else:
        templates = noise_filter_templates()
    traj = run(CnnGrid.from_pattern(pattern, pattern, templates), cfg, model)

    manifest = _Manifest(args.out, argv, digest, cfg.seed)
    manifest.add("trajectory.csv", _trajectory_csv(traj, model))
    stride = max(1, math.ceil(len(traj.mz) / MAX_FRAME_IMAGES))
    indices = list(range(0, len(traj.mz), stride))
    if indices[-1] != len(traj.mz) - 1:
        indices.append(len(traj.mz) - 1)
    for k, idx in enumerate(indices):
        manifest.add(f"frame_{k:04d}.pgm", frame_to_pgm(traj.mz[idx]))
    manifest.add("final.pat", save_pattern(traj.final_pattern))
    manifest.write()

    if traj.converged:
        print(f"converged at {traj.convergence_time * 1e9:.3f} ns "
              f"({traj.flipped_pixels} pixels flipped)")
        return EXIT_OK
    print(f"not converged within {cfg.t_max * 1e9:.3f} ns")
    return EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# train

def cmd_train(args, argv: list[str]) -> int:
    pairs = []
    for spec_ in args.pairs:
        if ":" not in spec_:
            raise ValueError(f"--pairs entry {spec_!r} must be cue:target")
        cue_s, target_s = spec_.split(":", 1)
        pairs.append((_load_pattern_arg(cue_s), _load_pattern_arg(target_s)))
    _check_out_dir(args.out, file=True)
    templates = hebbian_train(pairs)
    rows, cols = pairs[0][0].rows, pairs[0][0].cols
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(save_templates(templates, rows, cols))
    print(f"trained on {len(pairs)} pair(s); templates written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

def _list(text: str, flag: str, kind) -> list:
    """Comma-separated values of `kind`, each at most once."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc
    if not values:
        raise ValueError(f"{flag}: empty list")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"{flag}: repeated value {v}")
    return values


def _scenario(app: str) -> Scenario:
    """Built-in sweep scenarios on the bundled glyph set."""
    if app == "assoc":
        one, two = load_glyph("one"), load_glyph("two")
        three, four = load_glyph("three"), load_glyph("four")
        templates = hebbian_train([(one, two), (three, four)])
        return Scenario("assoc", one, templates, 4 / 600)
    return Scenario("noise-filter", load_glyph("zero"),
                    noise_filter_templates(), 0.1)


def cmd_sweep(args, argv: list[str]) -> int:
    full, digest = _load_config(args.config)
    voltages = _list(args.voltages, "--voltages", float)
    sizes = _list(args.sizes, "--sizes", int)
    seeds = _list(args.seeds, "--seeds", int)
    if min(sizes) < 1:
        raise ValueError("--sizes must be >= 1")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    _check_out_dir(args.out)
    scenario = _scenario(args.app)
    manifest = _Manifest(args.out, argv, digest, None)

    records = []
    try:
        for part in sweep_parts(scenario, voltages, sizes, seeds, full.sim,
                                full.cell_model(0.0), full.drive_model,
                                full.energy, jobs=args.jobs):
            records.extend(part)
    finally:
        # flush the ensembles that finished, even on interruption
        records.sort(key=lambda r: (r.v_drive, r.size_mult, r.seed))
        if records:
            manifest.add("sweep.csv", records_to_csv(records))
            manifest.write()

    frontier = pareto(records)
    if not frontier:
        print("no sweep point converged; no Pareto frontier")
        return EXIT_NOT_CONVERGED
    manifest.add("pareto.csv", frontier_to_csv(frontier))
    cmos_records = cmos_sweep(scenario, [1, 2, 5, 10, 20, 50], full.amplifier)
    report = compare(frontier, cmos_records)
    manifest.add("comparison.txt", comparison_report(report, scenario))
    manifest.write()
    print(f"{len(records)} sweep points, {len(frontier)} Pareto points; "
          f"energy ratio {report['energy_ratio']:.3g}x at matched delay")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle

def _verdict(label: str, ok: bool) -> int:
    """Print an oracle's last line, `label: yes|NO`; return its exit code."""
    print(f"{label}: " + ("yes" if ok else "NO"))
    return EXIT_OK if ok else EXIT_ERROR


def _oracle_critical_current(full: FullConfig) -> int:
    analytic = analytic_critical_current(full.magnet)
    numeric = critical_spin_current(full.magnet)
    ratio = numeric / analytic
    print(f"analytic small-angle estimate: {analytic:.6e} A")
    print(f"numeric bisection:             {numeric:.6e} A")
    print(f"ratio numeric/analytic:        {ratio:.4f} (tolerance: factor 2)")
    return _verdict("agreement", 0.5 <= ratio <= 2.0)


def _oracle_transmission(full: FullConfig) -> int:
    ch = full.channel
    analytic = spin_transmission(ch)
    numeric = numeric_transmission(1024, ch)
    err = abs(numeric - analytic)
    print(f"analytic 1/cosh(L/l_sf): {analytic:.10f}")
    print(f"numeric BVP (N=1024):    {numeric:.10f}")
    print(f"absolute error:          {err:.3e} (tolerance: 1e-06)")
    return _verdict("agreement", err <= 1e-6)


def _oracle_read_curve(full: FullConfig) -> int:
    thicknesses = (1.9e-9, 2.0e-9, 2.1e-9)
    mz = np.linspace(-1.0, 1.0, 41)
    header = "mz," + ",".join(
        f"v_div_tox_{t * 1e9:.1f}nm_V,v_out_tox_{t * 1e9:.1f}nm_V"
        for t in thicknesses)
    print(header)
    columns = []
    for t_ox in thicknesses:
        mtj = replace(full.mtj, t_ox_ref=t_ox, t_ox_read=t_ox)
        columns.append(([divider_voltage(mtj, v) for v in mz],
                        [read_cell(mtj, full.inverter, v)[0] for v in mz]))
    for i, v in enumerate(mz):
        print(f"{v:.6g}," + ",".join(
            f"{div[i]:.6g},{out[i]:.6g}" for div, out in columns))
    ok = all(all(out[i] <= out[i + 1] + 1e-12 for i in range(len(out) - 1))
             for _, out in columns)
    return _verdict("# monotone in mz", ok)


def _oracle_switch_stats(full: FullConfig) -> int:
    p, sim = full.magnet, full.sim
    i0 = _demo_i0(full)
    n0 = t0_crossing_step(p, -i0, -sim.mz_threshold, sim.t_max, sim.dt)
    if n0 is None:
        raise ValueError(f"drive {-i0:.3e} A does not switch at T = 0")
    t0 = n0 * sim.dt
    times = [t for t in switch_times(p, -i0, range(20), sim)
             if t is not None]
    if not times:
        raise ValueError("no stochastic realization switched")
    mean = float(np.mean(times))
    ratio = mean / t0
    print(f"deterministic (T = 0) switch time: {t0 * 1e9:.4f} ns")
    print(f"stochastic mean over {len(times)}/20 seeds at "
          f"{sim.temperature:.0f} K: {mean * 1e9:.4f} ns "
          f"(std {float(np.std(times)) * 1e9:.4f} ns)")
    print(f"ratio stochastic/deterministic: {ratio:.3f} (tolerance: factor 3)")
    return _verdict("agreement", 1 / 3 <= ratio <= 3.0 and len(times) >= 18)


ORACLES = {
    "critical-current": _oracle_critical_current,
    "transmission": _oracle_transmission,
    "read-curve": _oracle_read_curve,
    "switch-stats": _oracle_switch_stats,
}


def cmd_oracle(args, argv: list[str]) -> int:
    full, _ = _load_config(args.config)
    return ORACLES[args.check](full)


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """A usage error is a ValueError, so it exits 1 like any user error and
    not 2, argparse's own code, which here means "not converged"."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spincnn",
        description="Spintronic cellular neural network simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one application on a pattern")
    p.add_argument("--config", help="config file (or $SPINCNN_CONFIG)")
    p.add_argument("--pattern", required=True,
                   help="pattern file or bundled glyph name")
    p.add_argument("--app", choices=("noise-filter", "assoc"),
                   default="noise-filter")
    p.add_argument("--templates", help="template file (required for assoc)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="Hebbian-train space-varying templates")
    p.add_argument("--pairs", nargs="+", required=True, metavar="CUE:TARGET",
                   help="pattern file pairs, cue:target")
    p.add_argument("--out", required=True, help="output template file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="voltage/size design-space sweep")
    p.add_argument("--config", help="config file (or $SPINCNN_CONFIG)")
    p.add_argument("--app", choices=("noise-filter", "assoc"),
                   default="noise-filter")
    p.add_argument("--voltages",
                   default="0.01,0.05,0.11,0.14,0.19,0.27,0.52,1.0",
                   help="comma-separated drive voltages [V]")
    p.add_argument("--sizes", default="1", help="comma-separated driver sizes")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="analytic-versus-numeric cross-checks")
    p.add_argument("check", choices=ORACLES)
    p.add_argument("--config", help="config file (or $SPINCNN_CONFIG)")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, ["spincnn"] + argv)
    except (ValueError, RuntimeError, OSError) as exc:
        # an OSError here comes from writing outputs; _read maps the inputs'
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ArithmeticError as exc:
        print(f"error: {exc} (a setting is out of range)", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
