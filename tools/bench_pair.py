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

First it runs the probes: each is a function below whose docstring says
what it measures, with its passes per process in PROBES.  A probe runs in
PROBE_RUNS fresh processes per side, the sides alternating, each process
putting its side's ``src`` and ``perfbench`` first on ``sys.path`` and
calling the probe by name.  A side's ``seconds`` are each process's median
pass; its counts, which repeat exactly, and ``caches``, the ``cache_info()``
of every ``chainlab`` memo, come from its first process.  The ``start_path``
probe stays a code string: it runs each CLI case of
``perfbench/expected/cli.json`` in a fresh ``python -S`` process, which must
import no more than the verb does.

The JSON written has ``command``, ``host``, ``parent``, ``change``,
``src.lines``, one entry per probe, ``workloads`` (every pair's results,
keys in the order the sides ran) and ``medians`` (per side and metric).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
PAIRS = 10
PROBE_RUNS = 5

# Runs in a side's golden directory: one recorded CLI case, then what the
# process has imported.  -S keeps site hooks out of the count.
START_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1] + "/src")
import chainlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = chainlab.cli.main(sys.argv[2:])
modules = sys.modules
print(json.dumps({"code": code, "modules": len(modules), "dataclasses": "dataclasses" in modules,
                  "inspect": "inspect" in modules}))
"""


def memos():
    """Each memo (anything with ``cache_info``) of the loaded ``chainlab``
    modules as ("module.name", memo), once, under the module that defines it
    and the name it is bound to there."""
    for module, namespace in sorted(sys.modules.items()):
        if module == "chainlab" or module.startswith("chainlab."):
            for name, value in vars(namespace).items():
                if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module:
                    yield f"{module}.{name}", value


def caches() -> dict:
    """The memo census: each memo's ``cache_info()`` by its key."""
    return {key: memo.cache_info()._asdict() for key, memo in memos()}


def clear(*modules: str) -> None:
    """Empty every memo of the modules named, or under them."""
    for key, memo in memos():
        if key.startswith(tuple(f"{module}." for module in modules)):
            memo.cache_clear()


def timed(passes: int, work) -> tuple[list, object]:
    """The seconds of each of ``passes`` calls of ``work``, and what the last returned."""
    seconds, result = [], None
    for _ in range(passes):
        start = time.perf_counter()
        result = work()
        seconds.append(round(time.perf_counter() - start, 4))
    return seconds, result


def counted(module, name: str, work) -> int:
    """The calls of ``module.name`` during one call of ``work``."""
    real, calls = getattr(module, name), []
    setattr(module, name, lambda *args: calls.append(args) or real(*args))
    work()
    setattr(module, name, real)
    return len(calls)


def profile_cache(passes: int, seed: int) -> dict:
    """chainability.profile(y, |y|) on the first 400 planted-search structures
    of the seed, every morphism memo cleared before each pass: the
    least-relabeling searches ('misses', of morphism._canonical_form_cached)
    and the invariant orders derived ('orders', misses of
    morphism._subset_form) of the last pass, and the census after it"""
    from chainlab import chainability, morphism
    from workloads import PlantedSearch

    w = PlantedSearch(seed)
    w.setup()
    ys = [w.planted(i)[0] for i in range(400)]

    def profiles():
        clear("chainlab.morphism")
        for y in ys:
            chainability.profile(y, y.size)

    seconds, _ = timed(passes, profiles)
    orders = morphism._subset_form.cache_info().misses
    misses = morphism._canonical_form_cached.cache_info().misses
    return {"misses": misses, "orders": orders, "seconds": seconds, "caches": caches()}


def round_trip(passes: int, seed: int) -> dict:
    """extract_definitions, apply_definitions and verify_definitions on every
    chainable witness of every binary class on <= 3 points (the small
    corpus-sweep cases): whether every round trip holds ('ok'), the census
    after the timed passes, and the eval_formula calls of one more warm pass
    and of one cold pass, every core and logic memo cleared first"""
    from chainlab import chainability, corpus, logic, verify

    cases = []
    for m in range(4):
        witnesses = verify.all_witnesses(m)
        for mask in corpus.binary_masks_up_to_iso(m):
            y = corpus.structure_from_mask(m, mask)
            cases += [(chainability.witness_companion(w), y) for w in witnesses if chainability.is_chainable_with(y, w)]

    def round_trips():
        ok = True
        for x, y in cases:
            defs = logic.extract_definitions(x, y)
            ok = ok and logic.apply_definitions(x, defs, y.sig) == y and logic.verify_definitions(x, y, defs)
        return ok

    seconds, ok = timed(passes, round_trips)
    census = caches()
    warm = counted(logic, "eval_formula", round_trips)
    clear("chainlab.core", "chainlab.logic")
    cold = counted(logic, "eval_formula", round_trips)
    return {"round_trips": len(cases), "ok": ok, "seconds": seconds, "eval_formula_calls": warm,
            "eval_formula_calls_cold": cold, "caches": census}


def decision(passes: int, seed: int) -> dict:
    """is_chainable_with on every witness of every binary class on <= 3
    points: the chainable pairs, the census after the timed passes, and the
    chainability._subset_key calls of one more warm pass and of one cold
    pass, every chainability memo cleared first"""
    from chainlab import chainability, corpus, verify

    cases = [
        (corpus.structure_from_mask(m, mask), w)
        for m in range(4)
        for mask in corpus.binary_masks_up_to_iso(m)
        for w in verify.all_witnesses(m)
    ]

    def decisions():
        return sum(chainability.is_chainable_with(y, w) for y, w in cases)

    seconds, chainable = timed(passes, decisions)
    census = caches()
    warm = counted(chainability, "_subset_key", decisions)
    clear("chainlab.chainability")
    cold = counted(chainability, "_subset_key", decisions)
    return {"decisions": len(cases), "chainable": chainable, "seconds": seconds, "subset_key_calls": warm,
            "subset_key_calls_cold": cold, "caches": census}


def age_sentence(passes: int, seed: int) -> dict:
    """verify.age_sentence_check over every binary class on <= 4 points with
    criterion 5's seed (5) and foreign fraction (0.15): whether every check
    agrees ('ok'), and the census after the first pass, so its hits are seen
    to come from one pass, not from a replay"""
    from chainlab import corpus, verify

    structures = [y for m in range(5) for y in corpus.all_binary_structures(m)]

    def checks():
        return list(verify.age_sentence_check(structures, rng=random.Random(5), foreign_fraction=0.15))

    seconds, outcomes = timed(1, checks)
    census = caches()
    seconds += timed(passes - 1, checks)[0]
    return {"checks": len(outcomes), "ok": all(o is True for o in outcomes), "seconds": seconds, "caches": census}


# Each probe and its passes per process, in the order they run.
PROBES = {profile_cache: 1, round_trip: 10, decision: 10, age_sentence: 3}


def child(root: str, name: str, passes: int, seed: int) -> dict:
    """Probe ``name``'s report on the side in ``root``, whose sources go first."""
    sys.path[:0] = [f"{root}/src", f"{root}/perfbench"]
    return globals()[name](passes, seed)


def probe(root: Path, name: str, passes: int, seed: int) -> dict:
    """Probe ``name``'s report on the side in ``root``, from a fresh process."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(child, (str(root), name, passes, seed))


def probe_runs(roots: dict, name: str, passes: int, seed: int) -> dict:
    """Each side's report of PROBE_RUNS alternating runs of probe ``name``:
    the first run's counts, each run's median pass and their median."""
    runs: dict = {side: [] for side in SIDES}
    for i in range(PROBE_RUNS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(probe(roots[side], name, passes, seed))
    out = {}
    for side, reports in runs.items():
        seconds = [statistics.median(r["seconds"]) for r in reports]
        out[side] = {**reports[0], "seconds": seconds, "median_pass": statistics.median(seconds)}
    return out


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
        for fn, passes in PROBES.items():
            doc[fn.__name__] = {
                "what": f"{' '.join(fn.__doc__.split())}. Seed {args.seed}; timed passes per process: {passes}, in "
                f"each of {PROBE_RUNS} fresh processes per side, the sides alternating: each process's median pass "
                "('seconds') and their median ('median_pass'); the counts and 'caches' (the cache_info() of every "
                "chainlab memo, keyed by the module that defines it) come from the first process",
                **probe_runs(roots, fn.__name__, passes, args.seed),
            }
            print(f"{fn.__name__}: {doc[fn.__name__]}", file=sys.stderr)
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
