"""chainlab benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the library is imported from ``src``).  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json: ops run
back to back for ``--seconds`` (and at least MIN_OPS ops), every output is
checked, and failed ops are left out of the latencies.  ``setup_s`` is the
median of SETUP_REPEATS fresh processes that each start the interpreter,
import, build the seeded inputs and load the fixtures.

Times are host-normalised.  The benchmark runs on a few cores of a shared
host whose speed swings by up to 2x within minutes, far more than the
regressions it must catch.  So after every op (and every set-up process) it
times a fixed reference task that no chainlab change touches (see
``Workload.reference``), and scales the op's wall time by the reference's
nominal time over the median reference time of the ops around it.  A
chainlab change moves the scaled times exactly as it moves wall times; a
host that runs everything 1.5x slower for a while moves neither.  The raw
wall-clock figures and the reference times are printed on a ``#`` line
before the result.

``--trace 1`` measures the per-layer metrics of BENCHMARK.json on a fixed op
list (so every count repeats exactly for a seed): a fresh child process runs
the list untraced, then this process runs it with every public chainlab
function wrapped (see tracer.py).  Spans are written to
``perfbench/out/trace-<workload>-<seed>.json``.  ``.ms`` metrics of a
function are its self time summed over the pass; ``<layer>.self_ms`` sums a
module's functions; ``trace.unattributed_ms`` is op time no wrapped function
covers.  Layers a workload does not reach read 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, clock  # noqa: E402

MIN_OPS = 100
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
# Per-layer metrics counted by the tracer's observers; absent means none seen.
COUNTERS = (
    "chainability.kernel.sets_tried",
    "gpw.enumerate_chaining_orders.candidates",
    "gpw.enumerate_chaining_orders.orders_found",
    "gpw.classify_family.tag.",
)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library() -> None:
    """Import chainlab from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chainlab" / "__init__.py").is_file():
        die(f"no chainlab sources under {src}")
    sys.path.insert(0, str(src))
    import chainlab

    if Path(chainlab.__file__).resolve().parents[1] != src.resolve():
        die(f"imported chainlab from {chainlab.__file__}, not from {src}")
    for path in (ROOT / "tests" / "golden", ROOT / "BENCHMARK.json"):
        if not path.exists():
            die(f"missing {path}")


def run_op(op, run=None) -> tuple[bool, float]:
    """Run one op and check it; returns (ok, seconds)."""
    start = clock()
    try:
        result = run() if run is not None else op.run()
        elapsed = clock() - start
        ok = bool(op.check(result))
    except Exception:  # an op that raises is a failed op, never a fast one
        elapsed = clock() - start
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"perfbench: op {op.name} failed", file=sys.stderr)
    return ok, elapsed


def run_list(ops) -> dict:
    start = clock()
    failed = sum(not run_op(op)[0] for op in ops)
    return {"seconds": clock() - start, "ops": len(ops), "failed": failed}


def timed_loop(workload, seconds: float) -> dict:
    """Run ops back to back, each followed by a reference: op i lies between
    references i and i + 1, and its time is scaled by the median of the
    references from i - k to i + 1 + k, k = ``workload.reference_window``."""
    latencies, oks = [], []
    stream = workload.ops()
    workload.reference()
    refs = [workload.reference()]
    start = clock()
    while True:
        ok, elapsed = run_op(next(stream))
        latencies.append(elapsed)
        oks.append(ok)
        refs.append(workload.reference())
        wall = clock() - start
        if wall >= seconds and len(latencies) >= MIN_OPS:
            break
    n, k = len(latencies), workload.reference_window
    scaled = [
        t * workload.reference_nominal_s / statistics.median(refs[max(0, i - k) : i + k + 2])
        for i, t in enumerate(latencies)
    ]
    return {"latencies": latencies, "scaled": scaled, "ok": oks, "refs": refs, "attempted": n, "failed": oks.count(False)}


def child(args, flag: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), flag]
    return subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)


def measure_setup(args, digest: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh set-up processes, each followed by a bare
    interpreter start as its host-speed reference."""
    from workloads import spawn_reference

    times, refs = [], []
    spawn_reference()
    for _ in range(SETUP_REPEATS):
        start = clock()
        out = child(args, "--setup-only").stdout.split()
        times.append(clock() - start)
        refs.append(spawn_reference())
        if out != [digest]:
            die(f"set-up is not deterministic: {out} != {digest}")
    return times, refs


def startup_probe() -> dict:
    """Interpreter start (the floor) and a cold ``import chainlab.cli``."""
    from workloads import cli_env, spawn, spawn_reference

    env = cli_env()
    bare, imports, numpy = [], [], 0
    probe = "import sys,time;t=time.perf_counter();import chainlab.cli;print(time.perf_counter()-t,int('numpy' in sys.modules))"
    for _ in range(STARTUP_REPEATS):
        bare.append(spawn_reference(env))
        code, out, _ = spawn([sys.executable, "-c", probe], env)
        if code != 0:
            die(f"cannot import chainlab.cli: {out[-300:]!r}")
        seconds, numpy = out.split()
        imports.append(float(seconds))
    return {
        "cli.interp_start_ms": statistics.median(bare) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3,
        "cli.numpy_imported": int(numpy),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "chainlab").rglob("*.py")))


def layer_metrics(names, tracer: Tracer, extra: dict) -> dict:
    summary = tracer.summary()
    calls, self_ms, counters = summary["calls"], summary["self_ms"], summary["counters"]

    def ratio(counter: str, fn: str) -> float:
        return counters.get(counter, 0) / calls[fn] if calls.get(fn) else 0.0

    extra = {
        **extra,
        "morphism.canonical_form.repeat_ratio": ratio("morphism.canonical_form.repeats", "morphism.canonical_form"),
        "chainability.is_chainable_with.true_ratio": ratio(
            "chainability.is_chainable_with.true", "chainability.is_chainable_with"
        ),
        "chainability.find_chain_order.found_ratio": ratio(
            "chainability.find_chain_order.found", "chainability.find_chain_order"
        ),
        "trace.unattributed_ms": self_ms.get("bench.op", 0.0),
    }
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        elif name in counters:
            out[name] = counters[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_ms"):
            layer = name[: -len(".self_ms")]
            out[name] = sum(v for k, v in self_ms.items() if k.split(".", 1)[0] == layer)
        elif name.endswith(".ms"):
            out[name] = self_ms.get(name[: -len(".ms")], 0.0)
        elif name.startswith(COUNTERS):
            out[name] = counters.get(name, 0)
        else:
            raise KeyError(f"no value for per-layer metric {name}")
    return out


def inclusive_ms(tracer: Tracer, name: str) -> list[float]:
    nid = tracer.names.index(name) if name in tracer.names else -1
    return [(end - start) * 1e3 for n, start, end, _ in tracer.spans if n == nid]


def traced_run(args, workload, names) -> dict:
    twin = json.loads(child(args, "--untraced-pass").stdout.splitlines()[-1])
    tracer = Tracer()
    tracer.install()
    try:
        ops = workload.traced_ops()
        start = clock()
        failed = 0
        for op in ops:
            ok, _ = run_op(op, lambda op=op: workload.run_traced(op, tracer))
            failed += not ok
        traced_seconds = clock() - start
    finally:
        tracer.uninstall()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json")
    attempted = len(ops) + twin["ops"]
    failed += twin["failed"]
    main_ms = inclusive_ms(tracer, "cli.main")
    extra = {
        **workload.setup_metrics,
        **startup_probe(),
        "cli.main_ms": statistics.median(main_ms) if main_ms else 0.0,
        "trace.overhead_ratio": twin["seconds"] / traced_seconds,
        "trace.ops": len(ops),
        "bench.failed_ratio": failed / attempted,
        "src.lines": src_lines(),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": layer_metrics(names, tracer, extra),
    }


def latency_metrics(latencies: list[float], seconds: float) -> dict:
    return {
        "ops_per_s": len(latencies) / seconds,
        "op_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3 if len(latencies) >= 2 else 0.0,
    }


def untraced_run(args, workload) -> dict:
    from workloads import REF_SPAWN_NOMINAL_S

    loop = timed_loop(workload, args.seconds)
    setup, setup_refs = measure_setup(args, workload.input_digest)
    # Failed ops count in the time of the loop, never in its latencies.
    scaled = [t for t, ok in zip(loop["scaled"], loop["ok"]) if ok]
    raw = [t for t, ok in zip(loop["latencies"], loop["ok"]) if ok]
    values = {
        **latency_metrics(scaled, sum(loop["scaled"])),
        "setup_s": statistics.median(t * REF_SPAWN_NOMINAL_S / r for t, r in zip(setup, setup_refs)),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    unscaled = {
        **latency_metrics(raw, sum(loop["latencies"])),
        "setup_s": statistics.median(setup),
        "ref_ms": statistics.median(loop["refs"]) * 1e3,
        "ref_nominal_ms": workload.reference_nominal_s * 1e3,
        "setup_ref_ms": statistics.median(setup_refs) * 1e3,
    }
    print("# unscaled wall clock: " + json.dumps(unscaled))
    return {
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": values,
    }


def main() -> None:
    import_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    internal = parser.add_mutually_exclusive_group()
    internal.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    internal.add_argument("--untraced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    if args.setup_only:
        print(workload.input_digest)
        return
    if args.untraced_pass:
        print(json.dumps(run_list(workload.trace_ops())))
        return

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"# workload={args.workload} seed={args.seed} inputs={workload.input_digest}")
    result = traced_run(args, workload, [m["name"] for m in section]) if args.trace else untraced_run(args, workload)
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in section
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
