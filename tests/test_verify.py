import json
import time

import pytest

from chainlab import cli, verify
from chainlab.errors import DomainError, UnsupportedSizeError


def test_each_suite_alone_matches_the_full_run():
    # Shared corpora draw from their own generators, so running one suite
    # alone gives it the same inputs as a full run.
    full = {r["name"]: r for r in verify.run_suites(seed=5, cases=20)}
    assert list(full) == list(verify.SUITES)
    # Each suite's inputs, pinned by its case count.
    assert {name: r["cases"] for name, r in full.items()} == {
        "core-restriction-composition": 3106,
        "core-reduct-commute": 400,
        "companion-axioms": 52,
        "pa-restriction-closure": 13522,
        "pa-reversal-chains": 6,
        "iso-canonical-agree": 5527,
        "reduction-oracle": 1839,
        "chain-reversal": 1869,
        "chain-monotonicity": 972,
        "profile-bound": 132,
        "trace-isomorphism": 1784,
        "age-transfer": 87,
        "definability-roundtrip": 656,
        "star-translation": 300,
        "quotient-translation": 200,
        "age-sentence": 1010,
        "literal-type-partition": 156,
        "family-reversal-closure": 895,
        "classification-soundness": 524,
        "classification-presentation-invariance": 524,
        "monomorphic-chains": 5,
        "named-fixtures": 7,
    }
    for name in verify.SUITES:
        assert verify.run_suites(only=name, seed=5, cases=20) == [full[name]]


def test_cases_above_the_cap_are_refused_before_any_suite_runs():
    start = time.monotonic()
    with pytest.raises(UnsupportedSizeError):
        verify.run_suites(cases=10**9)
    assert time.monotonic() - start < 1.0


def test_negative_cases_are_a_domain_error():
    with pytest.raises(DomainError):
        verify.run_suites(only="companion-axioms", cases=-1)


def test_cases_at_the_bounds_are_accepted():
    for cases in (0, verify.VERIFY_CASES_CAP):
        (result,) = verify.run_suites(only="companion-axioms", cases=cases)
        assert result["ok"] and result["cases"] > 0


def test_failures_are_counted_and_the_first_five_reported(monkeypatch, capsys):
    messages = [f"failure {i}" for i in range(6)]

    def check(shared, rng):
        yield True
        yield from messages

    monkeypatch.setattr(verify, "SUITES", {"failing": check})
    report = {"name": "failing", "cases": 7, "failures": 6, "examples": messages[:5], "ok": False}
    assert verify.run_suites(only="failing") == [report]
    assert cli.main(["verify", "--only", "failing"]) == 1
    assert json.loads(capsys.readouterr().out) == {"suites": [report], "ok": False}
