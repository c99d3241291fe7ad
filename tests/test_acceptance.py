"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The heavy sweep (every binary structure on up to four points, one per
isomorphism class, against every frozen-set/order pair) is computed once per
session and shared by the first four criteria.
"""

import itertools
import math
import random
import time

import pytest
from conftest import GOLDEN, run_cli

from chainlab import corpus, verify
from chainlab.chainability import kernel
from chainlab.gpw import classify_family, enumerate_chaining_orders


def report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")


@pytest.fixture(scope="session")
def full_sweep():
    structures = []
    for m in range(5):
        structures.extend(corpus.all_binary_structures(m))
    start = time.monotonic()
    outcomes, chainable = verify.reduction_oracle_sweep(structures)
    elapsed = time.monotonic() - start
    return structures, outcomes, chainable, elapsed


def test_criterion_1_reduction_oracle_equivalence(full_sweep):
    structures, outcomes, _, elapsed = full_sweep
    cases, failures = verify.tally(outcomes)
    ok = not failures and elapsed < 300.0
    report(
        "criterion 1 (reduction-oracle equivalence, all m<=4)",
        ok,
        f"{len(structures)} structures, {cases} (F, order) pairs, "
        f"{len(failures)} disagreements, {elapsed:.1f}s",
    )
    assert not failures
    assert elapsed < 300.0


def test_criterion_2_definability_round_trip(full_sweep):
    _, _, chainable, _ = full_sweep
    cases, failures = verify.tally(verify.roundtrip_check(chainable))
    report(
        "criterion 2 (definability round trip on every chainable pair)",
        not failures,
        f"{cases} chainable pairs, {len(failures)} failures",
    )
    assert not failures


def test_criterion_3_profile_bound(full_sweep):
    structures, _, _, _ = full_sweep
    cases, failures = verify.tally(verify.profile_bound_check(structures))
    report(
        "criterion 3 (profile bounded by 2^kernel)",
        not failures,
        f"{cases} structures, {len(failures)} violations",
    )
    assert not failures


def test_criterion_4_trace_isomorphism(full_sweep):
    _, _, chainable, _ = full_sweep
    cases, failures = verify.tally(verify.trace_check(chainable))
    report(
        "criterion 4 (equal traces give isomorphic substructures)",
        not failures,
        f"{cases} checks over {len(chainable)} chainable pairs, "
        f"{len(failures)} violations",
    )
    assert not failures


def test_criterion_5_age_sentence_agreement(full_sweep):
    structures, _, _, _ = full_sweep
    rng = random.Random(5)
    extra = verify.random_structures(rng, 200, sizes=(5,), symbols=(1,), arity=(2, 2))
    cases, failures = verify.tally(
        verify.age_sentence_check(list(structures) + extra, rng=rng, foreign_fraction=0.15)
    )
    report(
        "criterion 5 (age-sentence evaluator agrees with direct comparison)",
        not failures,
        f"{cases} checks (all m<=4 plus {len(extra)} random m=5), "
        f"{len(failures)} disagreements",
    )
    assert not failures


def test_criterion_6_star_translation():
    cases, failures = verify.tally(verify.star_translation_check(seed=20260810, cases=1000))
    report(
        "criterion 6 (star translation semantics)",
        not failures,
        f"{cases} seeded random cases, {len(failures)} disagreements",
    )
    assert cases >= 1000
    assert not failures


def test_criterion_7_named_fixtures():
    checks = []
    start = time.monotonic()

    # Five-cycle kernel, against an independent full-quantification oracle.
    c5 = corpus.cycle_structure(5)
    kernel_report = kernel(c5, 4)
    checks.append(("kernel(C5).min_size == 4", kernel_report.min_size == 4))
    oracle_small_f = all(
        not verify.chainable_full(c5, w)
        for w in verify.all_witnesses(5)
        if len(w.f_set) <= 3
    )
    checks.append(("no F of size <= 3 chains C5 (full oracle)", oracle_small_f))

    chain_family = enumerate_chaining_orders(corpus.chain_structure(5), [])
    chain_cls = classify_family(chain_family)
    checks.append(
        (
            "chain family = {order, reverse}, BoundedPerturbation((), ())",
            set(chain_family.orders) == {(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)}
            and chain_cls.tag == "BoundedPerturbation"
            and chain_cls.k_set == ()
            and chain_cls.h_set == (),
        )
    )

    pentagon_family = enumerate_chaining_orders(corpus.pentagon_cyclic_order(), [])
    checks.append(
        (
            "pentagon family: 10 members, RotationFamily",
            len(pentagon_family.orders) == 10
            and classify_family(pentagon_family).tag == "RotationFamily",
        )
    )

    unary_family = enumerate_chaining_orders(corpus.unary_structure(5, [0]), [0])
    checks.append(
        (
            "marked-point family: 24 members, AllOrders",
            len(unary_family.orders) == math.factorial(4)
            and classify_family(unary_family).tag == "AllOrders",
        )
    )

    golden_runs = [
        ("kernel_c5.golden", ("kernel", "--structure", "c5.json")),
        ("classify_chain5.golden", ("classify-orders", "--structure", "chain5.json")),
        ("classify_pentagon.golden", ("classify-orders", "--structure", "pentagon.json")),
        (
            "classify_unary5.golden",
            ("classify-orders", "--structure", "unary5.json", "--f", "0"),
        ),
    ]
    for golden, args in golden_runs:
        expected = (GOLDEN / golden).read_text()
        got = run_cli(*args)
        checks.append((f"golden bytes: {golden}", got.stdout == expected and got.returncode == 0))

    elapsed = time.monotonic() - start
    failures = [label for label, ok in checks if not ok]
    report(
        "criterion 7 (named fixtures, bit-exact goldens)",
        not failures and elapsed < 240.0,
        f"{len(checks)} checks in {elapsed:.1f}s"
        + (f"; failing: {failures}" if failures else ""),
    )
    assert not failures
    assert elapsed < 240.0  # well under one minute per fixture


def test_criterion_8_reversal_closure():
    rng = random.Random(8)
    scope = []
    for y in verify.small_binary_corpus():
        for f_size in range(y.size + 1):
            for f in itertools.combinations(range(y.size), f_size):
                scope.append((y, frozenset(f)))
    sample = rng.sample(corpus.all_binary_structures(4), 500)
    for y in sample:
        scope.append((y, frozenset()))
        for x in range(y.size):
            scope.append((y, frozenset({x})))
    for y in [
        corpus.chain_structure(5),
        corpus.cycle_structure(5),
        corpus.pentagon_cyclic_order(),
        corpus.unary_structure(5, [0]),
    ]:
        scope.append((y, frozenset()))
        scope.append((y, frozenset({0})))
    outcomes, _ = verify.reversal_closure_check(scope)
    cases, failures = verify.tally(outcomes)
    report(
        "criterion 8 (reversal closure of enumerated families)",
        not failures,
        f"{cases} families, {len(failures)} violations",
    )
    assert not failures


def test_criterion_9_monomorphic_chains():
    cases, failures = verify.tally(verify.monomorphic_check())
    report(
        "criterion 9 (linear orders: kernel 0, profile identically 1)",
        not failures,
        f"sizes 3..7, {len(failures)} violations",
    )
    assert not failures
