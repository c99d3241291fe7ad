"""The paired benchmark's probes and memo census (``tools/bench_pair.py``).

The probes clear memos and patch library functions, so they run in a child
process, never in the test process.  The census also checks the bounded
working set: every memo it finds is bounded by ``core.CACHE_SIZE``."""

import importlib
import pkgutil
import sys
from pathlib import Path

import chainlab
from chainlab import core

ROOT = Path(__file__).resolve().parents[1]
# On sys.path so that the probe's child process imports the harness by name.
sys.path.insert(0, str(ROOT / "tools"))
import bench_pair  # noqa: E402


def test_decision_and_round_trip_probes_run_in_a_child():
    decision = bench_pair.probe(ROOT, "decision", 1, 1)
    assert (decision["decisions"], decision["chainable"]) == (1719, 603)
    round_trip = bench_pair.probe(ROOT, "round_trip", 1, 1)
    assert round_trip["round_trips"] == 603 and round_trip["ok"]
    for key in ("chainlab.chainability._frozen_table", "chainlab.logic._rendered_type"):
        assert set(round_trip["caches"][key]) == {"hits", "misses", "maxsize", "currsize"}, key


def test_every_library_memo_is_bounded():
    for module in pkgutil.iter_modules(chainlab.__path__):
        importlib.import_module(f"chainlab.{module.name}")
    found = dict(bench_pair.memos())
    # An oracle, and a listing whose input is capped at 4 points.
    unbounded = {"chainlab.verify._chain_maps_full", "chainlab.corpus.binary_masks_up_to_iso"}
    assert unbounded <= set(found)
    for key, memo in found.items():
        maxsize = memo.cache_parameters()["maxsize"]
        assert key in unbounded or (maxsize is not None and maxsize <= core.CACHE_SIZE), key
