import time

import pytest

from chainlab import verify
from chainlab.errors import DomainError, UnsupportedSizeError


def test_each_suite_alone_matches_the_full_run():
    # Shared corpora draw from their own generators, so running one suite
    # alone gives it the same inputs as a full run.
    full = {r.name: r.to_dict() for r in verify.run_suites(seed=5, cases=20)}
    assert list(full) == list(verify.SUITES)
    for name in verify.SUITES:
        assert [r.to_dict() for r in verify.run_suites(only=name, seed=5, cases=20)] == [full[name]]


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
        assert result.ok and result.cases > 0
