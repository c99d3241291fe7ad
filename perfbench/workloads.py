"""The three benchmark workloads: inputs from a seed, operations, checks.

Every library call goes through a module attribute (``chainability.kernel``
rather than an imported name), so the tracer's wrappers see it.

* ``cli-fixtures``   one op = one ``python -m chainlab.cli <verb>`` process on
                     the ``tests/golden`` fixtures.
* ``corpus-sweep``   one op = one binary structure on <= 4 points, put through
                     the decision, definability round trip, trace check, star
                     translation and age-sentence agreement.
* ``planted-search`` one op = one library call (order search, kernel, order
                     family, profile) on a structure that is chainable by
                     construction over a planted frozen set.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from tracer import Tracer, clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "tests" / "golden"
EXPECTED = HERE / "expected"
CLI = [sys.executable, "-m", "chainlab.cli"]

# Structures in the traced pass of corpus-sweep and planted-search.
TRACE_SWEEP_STRUCTURES = 120
TRACE_PLANTED_STRUCTURES = 4
# Four-point classes sampled into corpus-sweep, next to all 117 on <= 3 points.
SWEEP_SAMPLE = 1000
# Planted structures generated in set-up; the op stream generates the rest
# on demand, outside the op latencies.
PLANTED_SETUP = 24
# Host-speed references (see ``Workload.reference``) and the time each one
# is scaled to: roughly their time on a 2-core Xeon VM when its other tenants
# are idle.
REF_ITEMS = 1500
REF_LOOP_NOMINAL_S = 0.0011
REF_PERM = 7
REF_PERM_NOMINAL_S = 0.00055
REF_SPAWN = [sys.executable, "-c", "pass"]
REF_SPAWN_NOMINAL_S = 0.055


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.input_digest = ""
        self.setup_metrics: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        """The endless op stream of the timed loop."""
        raise NotImplementedError

    def trace_ops(self) -> list[Op]:
        """The fixed op list of the traced pass, run untraced."""
        raise NotImplementedError

    def traced_ops(self) -> list[Op]:
        """The same ops, in the form the traced pass runs them."""
        return self.trace_ops()

    def run_traced(self, op: Op, tracer: Tracer):
        idx = tracer.open("bench.op")
        try:
            return op.run()
        finally:
            tracer.close(idx)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The host-speed reference the timed loop runs after every op: a fixed
    # task that no chainlab change can speed up or slow down, close in kind
    # to the ops.  In-process ops are plain interpreted Python.  One loop
    # reference is short and jittery, so an op is scaled by the median of the
    # 12 around it.
    reference_nominal_s = REF_LOOP_NOMINAL_S
    reference_window = 5

    def reference(self) -> float:
        return loop_reference()


def loop_reference() -> float:
    """Seconds one fixed pure-Python task takes: tuple, set, dict and
    frozenset churn, a keyed sort and a scan of the permutations of 6, the
    kinds of work chainlab's decisions and searches do.  Of the candidates
    tried, a tight arithmetic loop tracked the ops' speed worst.

    The collector is off while it runs: its allocations would otherwise set
    off full collections whose cost grows with chainlab's caches, and it
    frees all it allocates, so it leaves the collector's counts as it found
    them."""
    gc.disable()
    try:
        start = clock()
        items = [(i % 37, i % 11, i) for i in range(REF_ITEMS)]
        seen = set(items)
        groups: dict = {}
        for a, b, c in items:
            groups.setdefault((a, b), []).append(c)
        frozenset(x for x in seen if x[0] & 1)
        items.sort(key=lambda x: (x[1], x[0]))
        sum(p[0] < p[1] for p in itertools.permutations(range(6)))
        elapsed = clock() - start
    finally:
        gc.enable()
    return elapsed


def permutation_reference() -> float:
    """Seconds one scan of the 5040 permutations of 7 takes, with the
    collector off as in ``loop_reference``."""
    gc.disable()
    try:
        start = clock()
        sum(p[0] < p[1] for p in itertools.permutations(range(REF_PERM)))
        elapsed = clock() - start
    finally:
        gc.enable()
    return elapsed


def spawn_reference(env: dict | None = None) -> float:
    """Seconds one bare interpreter process (``python -c pass``) takes."""
    start = clock()
    code, _, _ = spawn(REF_SPAWN, env if env is not None else dict(os.environ))
    elapsed = clock() - start
    if code != 0:
        raise RuntimeError(f"reference process exited {code}")
    return elapsed


# ---------------------------------------------------------------------------
# cli-fixtures


def cli_env() -> dict:
    """The CLI's environment: an absolute PYTHONPATH taken from the imported
    package, so the child finds chainlab whatever its working directory."""
    import chainlab

    env = dict(os.environ)
    src = str(Path(chainlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def expand_args(args: list[str], formula: str) -> list[str]:
    """Fill the placeholders of a recorded CLI case: ``@formula.txt`` is the
    text of tests/golden/formula.txt, ``@bench`` this directory."""
    return [formula if a == "@formula.txt" else a.replace("@bench", str(HERE)) for a in args]


def spawn(argv: list[str], env: dict) -> tuple[int, bytes, float]:
    """Run one process in tests/golden; return its exit code, its stdout and
    stderr bytes (merged, so a traceback breaks the comparison), and its
    peak RSS in MiB."""
    proc = subprocess.Popen(argv, cwd=GOLDEN, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


class CliFixtures(Workload):
    name = "cli-fixtures"

    def setup(self) -> None:
        self.env = cli_env()
        table = json.loads((EXPECTED / "cli.json").read_text())
        formula = (GOLDEN / "formula.txt").read_text().strip()

        def load(case):
            stdout = (GOLDEN / case["golden"]).read_bytes() if "golden" in case else case["stdout"].encode()
            return case["args"][0], expand_args(case["args"], formula), case["code"], stdout

        self.fixed = [load(c) for c in table["cases"]]
        self.gens = [load(c) for c in table["gen"]]
        self.rng = random.Random(self.seed)
        self.gen_turn = 0
        self.gen_order = self.rng.sample(self.gens, len(self.gens))
        self.first_cycle = self._cycle()
        self.input_digest = digest([c[1] for c in self.first_cycle])
        self.child_rss = 0.0

    def _cycle(self) -> list:
        """Every fixed verb once plus the next gen case, in seeded order.  The
        gen cases take turns in a seeded order, so every run of 8 cycles or
        more holds each of them as often, whatever the seed."""
        cycle = self.fixed + [self.gen_order[self.gen_turn % len(self.gen_order)]]
        self.gen_turn += 1
        self.rng.shuffle(cycle)
        return cycle

    def _op(self, case, argv_head: list[str]) -> Op:
        verb, args, code, stdout = case

        def run():
            result = spawn(argv_head + args, self.env)
            self.child_rss = max(self.child_rss, result[2])
            return result

        return Op(verb, run, lambda r: r[0] == code and r[1] == stdout)

    def ops(self) -> Iterator[Op]:
        cycle = self.first_cycle
        while True:
            for case in cycle:
                yield self._op(case, CLI)
            cycle = self._cycle()

    def trace_ops(self) -> list[Op]:
        return [self._op(case, CLI) for case in self.first_cycle]

    def traced_ops(self) -> list[Op]:
        """The traced pass runs each verb in ``cli_child.py``, which times the
        import and traces ``main()``; its spans are grafted under the op."""
        return [self._op(case, [sys.executable, str(HERE / "cli_child.py")]) for case in self.first_cycle]

    def run_traced(self, op: Op, tracer: Tracer):
        idx = tracer.open("bench.op")
        try:
            code, out, rss = op.run()
        finally:
            tracer.close(idx)
        try:
            doc = json.loads(out)
        except ValueError:
            return code, out, rss
        tracer.merge(doc["trace"], idx)
        return doc["code"], doc["stdout"].encode(), rss

    def peak_rss_mb(self) -> float:
        return self.child_rss

    # A CLI op is a process start: its reference is a bare interpreter start,
    # which shares the fork, exec and start-up costs a Python loop misses.
    # Each op is scaled by the two references just before and after it, which
    # follow short swings of the host better than a wider window does.
    reference_nominal_s = REF_SPAWN_NOMINAL_S
    reference_window = 0

    def reference(self) -> float:
        return spawn_reference(self.env)


# ---------------------------------------------------------------------------
# corpus-sweep


class CorpusSweep(Workload):
    name = "corpus-sweep"

    def setup(self) -> None:
        from chainlab import corpus, verify

        start = clock()
        masks = {m: corpus.binary_masks_up_to_iso(m) for m in range(5)}
        self.setup_metrics["corpus.binary_masks_up_to_iso.ms"] = (clock() - start) * 1e3
        expected = json.loads((EXPECTED / "sweep.json").read_text())["chainable"]
        rng = random.Random(self.seed)
        keys = [(m, mask) for m in range(4) for mask in masks[m]]
        keys += [(4, mask) for mask in rng.sample(masks[4], SWEEP_SAMPLE)]
        rng.shuffle(keys)
        self.witnesses = {m: verify.all_witnesses(m) for m in range(5)}
        self.cases = []
        variables = ("x0", "x1")
        for m, mask in keys:
            y = corpus.structure_from_mask(m, mask)
            case = {"y": y, "m": m, "expected": expected[f"{m}:{mask}"]}
            if m:
                case["pick"] = rng.randrange(1 << 30)
                case["trace_n"] = rng.randint(1, m)
                case["formula"] = verify.random_formula(rng, y.sig, variables, depth=3, quantifiers=2)
                case["assignment"] = {v: rng.randrange(m) for v in variables}
                case["age_n"] = rng.randint(1, min(3, m))
                case["keep"] = rng.choice(([], ["E"]))
            self.cases.append(case)
        self.input_digest = digest(
            [(c["m"], c["y"].relations, c.get("pick"), c.get("formula"), c.get("assignment"), c.get("keep")) for c in self.cases]
        )

    def _op(self, case) -> Op:
        from chainlab import chainability, core, formulas, logic

        def run():
            y, m = case["y"], case["m"]
            chainable = [w for w in self.witnesses[m] if chainability.is_chainable_with(y, w)]
            ok = True
            defs_of = []
            for w in chainable:
                x = chainability.witness_companion(w)
                defs = logic.extract_definitions(x, y)
                ok = ok and logic.apply_definitions(x, defs, y.sig) == y
                ok = ok and logic.verify_definitions(x, y, defs)
                if m:
                    ok = ok and chainability.check_trace_isomorphism(y, w, case["trace_n"])
                defs_of.append((x, defs))
            if m and chainable:
                x, defs = defs_of[case["pick"] % len(defs_of)]
                f, assignment = case["formula"], case["assignment"]
                translated = logic.star_translate(f, defs)
                on_structure = formulas.eval_formula(f, y, assignment)
                on_companion = formulas.eval_formula(translated, core.companion_as_structure(x), assignment)
                ok = ok and on_structure == on_companion
                family = chainability.age_representatives(y, case["age_n"])
                ok = ok and logic.check_age_sentence_agreement(family, case["keep"], y)
            return len(chainable), ok

        return Op("structure", run, lambda r: r[1] and r[0] == case["expected"])

    def ops(self) -> Iterator[Op]:
        while True:
            for case in self.cases:
                yield self._op(case)

    def trace_ops(self) -> list[Op]:
        return [self._op(c) for c in self.cases[:TRACE_SWEEP_STRUCTURES]]


# ---------------------------------------------------------------------------
# planted-search

# (signature, domain size, planted frozen-set size), walked in order so every
# run holds the same mix of shapes.  Every shape has 6 points and a 4-5 point
# complement.  The cost of one structure swings with its random content, and a
# 30 s run holds only about 100 structures to average that out.  With 6 free
# points a structure's cost swings 2-3x.  On 7 points the kernel search has a
# heavy tail: {E/2} with 3 frozen points ran from 0.1 to 1.7 s around a 0.16 s
# median, {E/2, U/1} up to 0.8 s around 0.13 s, and either one moved
# ops_per_s by 15% from seed to seed.  The 7- and 8-element factorial
# searches come from the three fixed ops instead.
PLANTED_SCHEDULE = (
    ((("E", 2),), 6, 2),
    ((("E", 2), ("U", 1)), 6, 2),
    ((("C", 3),), 6, 1),
    ((("C", 3),), 6, 2),
)

CYCLIC8_ORDERS = {(1, 2, 3, 4, 5, 6, 7), (7, 6, 5, 4, 3, 2, 1)}
C8_PROFILE = (1, 2, 3, 5, 5, 4, 1, 1)


class PlantedSearch(Workload):
    name = "planted-search"

    # Planted ops are mostly permutation scans (order search, canonical
    # forms), and in slow spells of the host they slowed down about as much
    # as a bare permutation scan, while the set/dict/sort churn of
    # loop_reference slowed down less: scaled by it, ops_per_s still moved
    # with the host, by up to 0.2 (IQR over median) in five runs against
    # 0.05-0.07 with this reference.
    reference_nominal_s = REF_PERM_NOMINAL_S

    def reference(self) -> float:
        return permutation_reference()

    def setup(self) -> None:
        from chainlab import corpus

        self.cyclic8 = corpus.cyclic_order_structure(8)
        self.c8 = corpus.cycle_structure(8)
        self.rng = random.Random(self.seed)
        self.planted_inputs: list = []
        start = clock()
        first = [self.planted(i) for i in range(PLANTED_SETUP)]
        self.setup_metrics["corpus.planted_inputs.ms"] = (clock() - start) * 1e3
        self.input_digest = digest([(y.sig, y.relations, sorted(f), rest) for y, f, rest in first])

    def planted(self, i: int):
        """The i-th planted structure with its frozen set and complement
        order; structures come from one seeded stream, in order."""
        from chainlab import core, logic, verify

        while len(self.planted_inputs) <= i:
            symbols, m, k = PLANTED_SCHEDULE[len(self.planted_inputs) % len(PLANTED_SCHEDULE)]
            sig = core.Signature(symbols)
            x = verify.random_companion(self.rng, m, k)
            defs = verify.random_definition_set(self.rng, x, sig)
            y = logic.apply_definitions(x, defs, sig)
            self.planted_inputs.append((y, frozenset(x.constants), x.rest))
        return self.planted_inputs[i]

    def _fixed_ops(self) -> list[Op]:
        from chainlab import chainability, gpw

        return [
            Op(
                "enumerate_chaining_orders(cyclic8,{0})",
                lambda: gpw.enumerate_chaining_orders(self.cyclic8, {0}),
                lambda fam: set(fam.orders) == CYCLIC8_ORDERS,
            ),
            Op(
                "kernel(C8,8)",
                lambda: chainability.kernel(self.c8, 8),
                lambda rep: rep.min_size == 7 and len(rep.minimal_sets) == 8,
            ),
            Op(
                "profile(C8,8)",
                lambda: chainability.profile(self.c8, 8),
                lambda rep: tuple(rep.values) == C8_PROFILE,
            ),
        ]

    def _structure_ops(self, y, f_set, planted_rest) -> list[Op]:
        """Four calls on one planted structure; the later checks also use the
        earlier results, so a wrong order or kernel fails some op."""
        from chainlab import chainability, gpw

        seen: dict[str, object] = {}
        rest = sorted(planted_rest)

        def keep(key, fn):
            def run():
                seen[key] = fn()
                return seen[key]
            return run

        def check_order(order):
            return order is not None and sorted(order) == rest

        def check_kernel(rep):
            return (
                rep.min_size is not None
                and rep.min_size <= len(f_set)
                and all(len(f) == rep.min_size for f, _ in rep.minimal_sets)
            )

        def check_family(result):
            fam, cls = result
            orders = set(fam.orders)
            ok = bool(orders) and planted_rest in orders and seen.get("order") in orders
            if cls.tag != "Unmatched":
                ok = ok and gpw.expand_classification(cls, rest) == orders
            return ok

        def check_profile(rep):
            kernel_rep = seen.get("kernel")
            if kernel_rep is None or not check_kernel(kernel_rep):
                return False
            values = tuple(rep.values)
            return len(values) == y.size and values[-1] == 1 and all(1 <= v <= 2**kernel_rep.min_size for v in values)

        def family():
            fam = gpw.enumerate_chaining_orders(y, f_set)
            return fam, gpw.classify_family(fam)

        return [
            Op("find_chain_order", keep("order", lambda: chainability.find_chain_order(y, f_set)), check_order),
            Op("kernel", keep("kernel", lambda: chainability.kernel(y, len(f_set))), check_kernel),
            Op("family", family, check_family),
            Op("profile", lambda: chainability.profile(y, y.size), check_profile),
        ]

    def ops(self) -> Iterator[Op]:
        yield from self._fixed_ops()
        i = 0
        while True:
            yield from self._structure_ops(*self.planted(i))
            i += 1

    def trace_ops(self) -> list[Op]:
        ops = self._fixed_ops()
        for i in range(TRACE_PLANTED_STRUCTURES):
            ops.extend(self._structure_ops(*self.planted(i)))
        return ops


WORKLOADS = {w.name: w for w in (CliFixtures, CorpusSweep, PlantedSearch)}
