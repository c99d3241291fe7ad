"""Paired end-to-end benchmark of a parent commit against a change.

    python3 tools/bench_pair.py --parent REV [--change REV] --out BENCH_<n>.json
        [--workload W ...] [--seed 1]

Run from the repository root.  Each side is a clean export of its commit's
files (``git archive`` into a temporary directory, which leaves no worktree
entry behind); without ``--change`` the change side is this checkout as it
stands, uncommitted edits included.  For each workload (default: every one in
BENCHMARK.json) it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the ``run_seconds`` of BENCHMARK.json, on both sides alternately for
ten pairs, the parent first in odd pairs and the change first in even ones,
so a slow spell of the host falls on both sides alike.

It also counts the work of the planted-search profile ops, over
``chainability.profile(y, y.size)`` on the first 400 planted structures of the
seed, every morphism cache cleared first, in a fresh process per side: the
least-relabeling searches (misses of ``morphism._canonical_form_cached``) and
the invariant orders derived (misses of ``morphism._subset_form``).  Counts
repeat exactly; seconds do not.

And it counts what each CLI verb loads: every case recorded in
``perfbench/expected/cli.json`` runs through ``chainlab.cli.main`` in a fresh
``python -S`` process per side, which then reports its exit code, the size of
``sys.modules`` and whether ``dataclasses`` and ``inspect`` are among them.

The JSON written has ``command``, ``host``, ``parent``, ``change``,
``src.lines``, ``profile_cache``, ``start_path``, ``workloads`` (every pair's
results, keys in the order the sides ran) and ``medians`` (per side and
metric).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10
PROFILE_STRUCTURES = 400

# Runs in a side's tree: the misses of the form cache, that is the
# least-relabeling searches, and of the plain-key cache in front of it, that
# is the invariant orders derived, over the planted-search profile ops.
PROFILE_PROBE = """
import json, sys
root, seed, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/perfbench"]
from workloads import PlantedSearch
from chainlab import chainability, morphism
w = PlantedSearch(seed)
w.setup()
ys = [w.planted(i)[0] for i in range(count)]
for f in vars(morphism).values():
    if hasattr(f, "cache_clear"):
        f.cache_clear()
for y in ys:
    chainability.profile(y, y.size)
print(json.dumps({
    "misses": morphism._canonical_form_cached.cache_info().misses,
    "orders": morphism._subset_form.cache_info().misses,
}))
"""

# Runs in a side's golden directory: one recorded CLI case, then what the
# process has imported.  -S keeps site hooks out of the count.
START_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1] + "/src")
import chainlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = chainlab.cli.main(sys.argv[2:])
print(json.dumps({
    "code": code,
    "modules": len(sys.modules),
    "dataclasses": "dataclasses" in sys.modules,
    "inspect": "inspect" in sys.modules,
}))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The files of ``rev`` under ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def src_lines(root: Path) -> int:
    """Lines of the library sources, counted as perfbench/run.py counts them."""
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "chainlab").rglob("*.py")))


def host() -> str:
    model = "unknown CPU"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    bytecode = "off" if sys.flags.dont_write_bytecode else "on"
    return (
        f"{os.cpu_count()}-core {platform.system()} host ({model}), Python {platform.python_version()}, "
        f"bytecode writing {bytecode}"
    )


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=root, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def profile_cache(root: Path, seed: int, count: int) -> dict:
    argv = [sys.executable, "-c", PROFILE_PROBE, str(root), str(seed), str(count)]
    out = subprocess.run(argv, cwd=root, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def start_path(root: Path) -> dict:
    """START_PROBE's report on every recorded CLI case, keyed by its command
    line; placeholders are filled as perfbench fills them."""
    recorded = json.loads((ROOT / "perfbench" / "expected" / "cli.json").read_text())
    formula = (root / "tests" / "golden" / "formula.txt").read_text()
    out = {}
    for case in recorded["cases"] + recorded["gen"]:
        args = [formula if a == "@formula.txt" else a.replace("@bench", str(root / "perfbench")) for a in case["args"]]
        argv = [sys.executable, "-S", "-c", START_PROBE, str(root), *args]
        run = subprocess.run(argv, cwd=root / "tests" / "golden", check=True, stdout=subprocess.PIPE, text=True)
        out[" ".join(case["args"])] = json.loads(run.stdout.strip().splitlines()[-1])
    return out


def medians(pairs: list[dict]) -> dict:
    out = {}
    for side in SIDES:
        metrics = pairs[0][side]["metrics"]
        out[side] = {
            name: round(statistics.median(p[side]["metrics"][name]["value"] for p in pairs), 4) for name in metrics
        }
    return out


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--change", default=None, help="commit to measure (default: this checkout as it stands)")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    parent_rev = git("rev-parse", "--short", args.parent)
    change_rev = git("rev-parse", "--short", args.change) if args.change else "working tree"
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        roots = {
            "parent": export(parent_rev, Path(tmp) / "parent"),
            "change": export(args.change, Path(tmp) / "change") if args.change else ROOT,
        }
        doc = {
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {seconds} --trace 0",
            "host": f"{host()}; parent and change run alternately, the first side swapping each pair; "
            f"seed {args.seed} on every pair",
            "parent": parent_rev,
            "change": change_rev,
            "src.lines": {side: src_lines(roots[side]) for side in SIDES},
        }
        doc["profile_cache"] = {
            "what": f"least-relabeling searches ('misses', of morphism._canonical_form_cached) and invariant "
            f"orders derived ('orders', misses of morphism._subset_form) of profile(y, |y|) on the first "
            f"{PROFILE_STRUCTURES} planted-search structures, seed {args.seed}, every morphism cache cleared first",
            **{side: profile_cache(roots[side], args.seed, PROFILE_STRUCTURES) for side in SIDES},
        }
        print(f"profile cache: {doc['profile_cache']}", file=sys.stderr)
        doc["start_path"] = {
            "what": "each case of perfbench/expected/cli.json run through chainlab.cli.main in a fresh "
            "'python -S' process: its exit code, len(sys.modules) after the verb, and whether "
            "dataclasses and inspect are loaded",
            **{side: start_path(roots[side]) for side in SIDES},
        }
        for side in SIDES:
            counts = sorted({r["modules"] for r in doc["start_path"][side].values()})
            loaded = sum(r["dataclasses"] for r in doc["start_path"][side].values())
            print(f"start path {side}: modules {counts}, dataclasses in {loaded} cases", file=sys.stderr)
        doc["workloads"] = {}
        for workload in workloads:
            pairs = []
            for i in range(1, PAIRS + 1):
                pair: dict = {"pair": i, "seed": args.seed}
                for side in SIDES if i % 2 else SIDES[::-1]:
                    pair[side] = run_side(roots[side], workload, args.seed, seconds)
                    ops = pair[side]["metrics"]["ops_per_s"]["value"]
                    print(f"{workload} pair {i} {side}: ops_per_s {ops:.2f}", file=sys.stderr)
                pairs.append(pair)
            doc["workloads"][workload] = pairs
        doc["medians"] = {workload: medians(pairs) for workload, pairs in doc["workloads"].items()}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
