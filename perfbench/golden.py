"""SHA-256 digests of the golden outputs for the workloads' fixed seed.

    python3 perfbench/golden.py            # compare with golden.json
    python3 perfbench/golden.py --update   # write golden.json anew

Runs the first round of nf_filter, assoc_recall and sweep at seed 0 and
hashes trajectory.csv, final.pat, sweep.csv, pareto.csv and
comparison.txt. A refactor that claims to preserve behaviour leaves every
digest unchanged. The result is printed as information and is not a gate:
the exit code is 0 whether or not the digests match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

from run import ROOT, bootstrap, setup

SEED = 0
FILES = {
    "nf_filter": ("nf_sim", ("trajectory.csv", "final.pat")),
    "assoc_recall": ("assoc_sim", ("trajectory.csv", "final.pat")),
    "sweep": ("sweep", ("sweep.csv", "pareto.csv", "comparison.txt")),
}
REFERENCE = ROOT / "perfbench" / "golden.json"


def digests() -> dict[str, str]:
    from workloads import WORKLOADS, Tally
    out = {}
    for name, (label, files) in FILES.items():
        work = ROOT / "perfbench" / "out" / f"golden-{name}-{os.getpid()}"
        try:
            wl, _ = setup(WORKLOADS[name], SEED, work, 1)
            tally = Tally(round_s=[0.0])
            wl.run_round(0, tally)
            for f in files:
                out[f"{name}/{f}"] = hashlib.sha256(
                    (work / label / f).read_bytes()).hexdigest()
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--update", action="store_true",
                    help="write the reference file anew")
    args = ap.parse_args()
    bootstrap()
    got = digests()
    if args.update:
        REFERENCE.write_text(json.dumps({"seed": SEED, "sha256": got}, indent=2) + "\n")
        print(f"wrote {len(got)} digests to {REFERENCE.relative_to(ROOT)}")
        return 0
    want = json.loads(REFERENCE.read_text())["sha256"]
    for key, digest in got.items():
        print(f"{key}: {'match' if want.get(key) == digest else 'DIFFERS'}")
    same = got == want
    print("golden outputs " + ("byte-identical" if same else "changed"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
