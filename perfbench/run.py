"""spincnn benchmark: one workload per run, checked outputs, named metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload nf_filter --seed 1 --seconds 20 --trace 0

Workloads: nf_filter, assoc_recall, sweep, device (see workloads.py and
README.md). With --trace 0 the run measures untraced for --seconds and
reports the end-to-end metrics, times scaled to the reference speed of a
calibration loop timed between rounds; with --trace 1 it runs a fixed
number of rounds under the span tracer and reports the per-layer metrics.
Every
metric is printed as `name value unit`; the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("nf_filter", "assoc_recall", "sweep", "device")
# Seconds the calibration loop takes at the reference speed (README).
CALIBRATION_REF_S = 0.02


def bootstrap() -> None:
    """Import spincnn from this checkout's sources, never from elsewhere."""
    if not (SRC / "spincnn" / "__init__.py").is_file():
        sys.exit(f"error: no spincnn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spincnn
    if Path(spincnn.__file__).resolve().parent != SRC / "spincnn":
        sys.exit(f"error: spincnn imported from {spincnn.__file__}, not {SRC}")


def setup(workload_cls, seed: int, work: Path, repeats: int):
    """Build the workload `repeats` times; returns it and the median seconds."""
    times = []
    for _ in range(repeats):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        wl = workload_cls(ROOT, seed, work)
        wl.prepare()
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times)


def calibration_s(loops: int, iterations: int = 250) -> list[float]:
    """Timings of a fixed loop that runs no spincnn code: scalar float
    arithmetic and NumPy calls on a 3-vector and a 30x20x3 grid, the mix the
    workloads spend their time in."""
    import numpy as np
    m = np.full((30, 20, 3), 0.5)
    v = np.array([0.1, 0.2, 0.97])
    times = []
    for _ in range(loops):
        t0 = time.perf_counter()
        for _ in range(iterations):
            x, y, z = 0.1, 0.2, 0.97
            for _ in range(40):
                x, y, z = y * z - x * 0.5, z * x + y * 0.5, x * y + z
                r = (x * x + y * y + z * z) ** 0.5
                x, y, z = x / r, y / r, z / r
            w = v * 1.0001 + v
            w = w / np.linalg.norm(w)
            g = m * 1.0001 + m
            g[..., 2] += g[..., 0] * g[..., 1]
            g = g / np.linalg.norm(g, axis=-1, keepdims=True)
            np.where(g[..., 2] > 0.5, 1.0, -1.0)
        times.append(time.perf_counter() - t0)
    return times


def rounds(wl, tally, seconds: float, n_rounds: int | None) -> None:
    """Whole rounds until `seconds` have passed, or exactly `n_rounds`, with
    calibration loops before each round and after the last: about one loop
    per second of round, at least 3."""
    loops = max(3, round(wl.nominal_round_s))
    t0 = time.perf_counter()
    i = 0
    while True:
        tally.calibration_s.extend(calibration_s(loops))
        tally.round_s.append(0.0)
        wl.run_round(i, tally)
        i += 1
        if n_rounds is not None and i >= n_rounds \
                or n_rounds is None and time.perf_counter() - t0 >= seconds:
            tally.calibration_s.extend(calibration_s(loops))
            return


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bootstrap()
    import numpy  # noqa: F401  (import time belongs to set-up)
    import scipy.integrate  # noqa: F401
    import spincnn.cli  # noqa: F401
    import spans
    from workloads import WORKLOADS, Tally
    import_s = time.perf_counter() - t_start

    out = ROOT / "perfbench" / "out"
    work = out / f"{args.workload}-{os.getpid()}"
    wl_cls = WORKLOADS[args.workload]
    tally = Tally()
    details = {}
    try:
        if args.trace:
            metrics = spans.micro_timings(ROOT, args.seed)
            tracer = spans.Tracer()
            spans.install(tracer)
            wl, _ = setup(wl_cls, args.seed, work, 1)
            rounds(wl, tally, args.seconds,
                   max(1, round(args.seconds / wl.nominal_round_s)))
            tracer.save(out / f"trace-{args.workload}.npz")
            share = tally.nonconverged_steps / tally.sweep_steps if tally.sweep_steps else 0.0
            metrics.update(spans.per_layer(tracer, share))
            metrics["bench.round.wall_s"] = \
                (statistics.median(tally.round_s) * speed(tally), "s")
        else:
            wl, prep_s = setup(wl_cls, args.seed, work, SETUP_REPEATS)
            rounds(wl, tally, args.seconds, None)
            host = {
                "setup_s": (import_s + prep_s, "s"),
                "wall_s": (statistics.median(tally.round_s), "s"),
                "cell_steps_per_s": (statistics.median(tally.step_rates), "1/s"),
            }
            scale = speed(tally)
            metrics = {
                "setup_s": (host["setup_s"][0] * scale, "s"),
                "wall_s": (host["wall_s"][0] * scale, "s"),
                "cell_steps_per_s": (host["cell_steps_per_s"][0] / scale, "1/s"),
                "peak_rss_mb":
                    (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            details = {f"host_{name}": value for name, value in host.items()}
            details["calibration_s"] = (statistics.median(tally.calibration_s), "s")
            details.update(wl.details(tally))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in tally.notes + tally.problems:
        print(line, file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(tally.round_s)} rounds, "
          f"{tally.attempted} operations, {tally.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in details.items():
        print(f"detail {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(p.startswith("failed: ") for p in tally.problems),
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def speed(tally) -> float:
    """Factor that takes a host time of this run to the reference speed."""
    return CALIBRATION_REF_S / statistics.median(tally.calibration_s)


if __name__ == "__main__":
    sys.exit(main())
