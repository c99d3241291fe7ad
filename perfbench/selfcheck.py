"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py [--seed N] [--workload NAME ...]

For every workload: two fresh set-ups with the same seed must build inputs
with the same digest, and every count and ratio metric of two traced runs
with that seed must be identical.  For the seeded-input workloads
(corpus-sweep samples, planted-search structures) a different seed must
give a different digest.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDED_INPUTS = ("corpus-sweep", "planted-search")


def run(workload: str, seed: int, *extra: str) -> str:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), *extra]
    return subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout


def exact_metrics(workload: str, seed: int) -> dict:
    doc = json.loads(run(workload, seed, "--seconds", "1", "--trace", "1").splitlines()[-1])
    if not doc["correct"]:
        raise SystemExit(f"{workload}: traced run failed {doc['failed']} ops")
    return {k: v["value"] for k, v in doc["metrics"].items() if v["unit"] in ("count", "ratio") and k != "trace.overhead_ratio"}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    for workload in args.workload:
        first = run(workload, args.seed, "--setup-only").split()
        again = run(workload, args.seed, "--setup-only").split()
        if first != again:
            raise SystemExit(f"{workload}: same seed, different inputs {first} {again}")
        other = run(workload, args.seed + 1, "--setup-only").split()
        if workload in SEEDED_INPUTS and other == first:
            raise SystemExit(f"{workload}: seeds {args.seed} and {args.seed + 1} give the same inputs")
        a, b = exact_metrics(workload, args.seed), exact_metrics(workload, args.seed)
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        if diff:
            raise SystemExit(f"{workload}: counts differ between identical runs: {diff}")
        print(f"{workload}: inputs {first[0]} repeat, {len(a)} count metrics repeat exactly")
    print("selfcheck ok")


if __name__ == "__main__":
    main()
