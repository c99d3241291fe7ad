"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

Writes ``perfbench/expected/cli.json`` (exit code and stdout of every CLI
case, run as subprocesses; cases with a ``golden`` file must reproduce it)
and ``perfbench/expected/sweep.json`` (the number of chainable witnesses of
every binary structure on <= 4 points, decided by the full-quantification
oracle ``verify.chainable_full``, which shares no decision code with
``is_chainable_with``).  Run it only at a commit whose outputs are trusted:
the benchmark fails any op that departs from these files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import CLI, EXPECTED, GOLDEN, cli_env, expand_args, spawn  # noqa: E402

COMPANION = "@bench/fixtures/c5_frozen0123.json"

CLI_CASES = [
    {"args": ["kernel", "--structure", "c5.json"], "golden": "kernel_c5.golden"},
    {"args": ["profile", "--structure", "c5.json"], "golden": "profile_c5.golden"},
    {"args": ["classify-orders", "--structure", "chain5.json"], "golden": "classify_chain5.golden"},
    {"args": ["classify-orders", "--structure", "pentagon.json"], "golden": "classify_pentagon.golden"},
    {"args": ["classify-orders", "--structure", "unary5.json", "--f", "0"], "golden": "classify_unary5.golden"},
    {"args": ["check-chain", "--structure", "chain5.json", "--order", "0,1,2,3,4"]},
    {"args": ["check-chain", "--structure", "c5.json", "--f", "0", "--order", "1,2,3,4"]},
    {"args": ["find-order", "--structure", "chain5.json"]},
    {"args": ["find-order", "--structure", "c5.json", "--f", "0"]},
    {"args": ["age", "--structure", "c5.json", "--n", "2"]},
    {"args": ["age", "--structure", "c4.json", "--n", "2", "--within", "c5.json"]},
    # The documented exit-1 case: C4 is not definable over the plain 4-chain.
    {"args": ["define", "--structure", "c4.json", "--companion", "natural4.json"]},
    {"args": ["define", "--structure", "c5.json", "--companion", COMPANION]},
    {
        "args": [
            "star-eval", "--structure", "c5.json", "--companion", COMPANION,
            "--formula", "@formula.txt", "--assign", "v0=0,v1=2",
        ]
    },
]

GEN_CASES = [
    {"args": ["gen", "--seed", str(seed), "--size", str(size), "--symbols", str(symbols), "--arity", arity, "--density", density]}
    for seed, size, symbols, arity, density in [
        (7, 5, 1, "2", "0.4"),
        (11, 6, 2, "1-3", "0.3"),
        (23, 8, 1, "2", "0.5"),
        (42, 7, 3, "1-2", "0.25"),
        (101, 6, 1, "3", "0.2"),
        (977, 8, 2, "2", "0.6"),
        (4096, 4, 4, "1-4", "0.1"),
        (65537, 8, 1, "1", "0.5"),
    ]
]


def record_cli() -> dict:
    env = cli_env()
    formula = (GOLDEN / "formula.txt").read_text().strip()
    out = {"cases": [], "gen": []}
    for group, cases in (("cases", CLI_CASES), ("gen", GEN_CASES)):
        for case in cases:
            code, stdout, _ = spawn(CLI + expand_args(case["args"], formula), env)
            if "golden" in case and stdout != (GOLDEN / case["golden"]).read_bytes():
                raise SystemExit(f"{case['args']} does not reproduce {case['golden']}")
            if code not in (0, 1):
                raise SystemExit(f"{case['args']} exited {code}: {stdout[:200]!r}")
            out[group].append({**case, "code": code, "stdout": stdout.decode()})
    return out


def record_sweep() -> dict:
    from chainlab import corpus, verify

    counts = {}
    for m in range(5):
        witnesses = verify.all_witnesses(m)
        for mask in corpus.binary_masks_up_to_iso(m):
            y = corpus.structure_from_mask(m, mask)
            counts[f"{m}:{mask}"] = sum(verify.chainable_full(y, w) for w in witnesses)
    return {"oracle": "verify.chainable_full", "chainable": counts}


def main() -> None:
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / "cli.json").write_text(json.dumps(record_cli(), indent=1) + "\n")
    (EXPECTED / "sweep.json").write_text(json.dumps(record_sweep(), separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
