import itertools
import random
import time

import pytest
from conftest import five_ary_structures

from chainlab import chainability, corpus
from chainlab.chainability import (
    ChainWitness,
    age_forms,
    age_representatives,
    age_subset,
    check_profile_bound,
    check_trace_isomorphism,
    find_chain_order,
    is_chainable_with,
    kernel,
    profile,
)
from chainlab.core import signature, structure
from chainlab.errors import DomainError, UnsupportedSizeError
from chainlab.logic import apply_definitions
from chainlab.verify import (
    all_witnesses,
    chainable_full,
    random_companion,
    random_definition_set,
    random_structures,
)


def brute_force_kernel(y, max_f):
    """Kernel search with the first order of each frozen set taken from the
    itertools.permutations filter through is_chainable_with.  It shares the
    subset-type table and the purity step with kernel's search but not its
    backtracking, and it stays fast enough for the 7-point cases, where
    chainable_full is not."""
    for size in range(max_f + 1):
        found = []
        for f in itertools.combinations(range(y.size), size):
            rest = sorted(set(range(y.size)) - set(f))
            witnesses = (ChainWitness(frozenset(f), p) for p in itertools.permutations(rest))
            first = next((w.rest_order for w in witnesses if is_chainable_with(y, w)), None)
            if first is not None:
                found.append((f, first))
        if found:
            return size, tuple(found)
    return None, ()


class TestIsChainableWith:
    def test_chain_with_natural_order(self, chain5):
        assert is_chainable_with(chain5, ChainWitness.of([], [0, 1, 2, 3, 4]))

    def test_four_cycle_not_chainable_over_empty(self, c4):
        # The map 0->0, 2->1 sends the non-edge (0,2) to the edge (0,1).
        assert not is_chainable_with(c4, ChainWitness.of([], [0, 1, 2, 3]))

    def test_marked_point_frozen(self):
        y = corpus.unary_structure(5, [4])
        for order in itertools.permutations([0, 1, 2, 3]):
            assert is_chainable_with(y, ChainWitness.of([4], order))

    def test_partition_violation_rejected(self, c4):
        with pytest.raises(DomainError):
            is_chainable_with(c4, ChainWitness.of([0], [0, 1, 2, 3]))
        with pytest.raises(DomainError):
            is_chainable_with(c4, ChainWitness.of([0], [1, 2]))

    def test_empty_signature_always_chainable(self):
        y = structure(4, {}, [])
        assert is_chainable_with(y, ChainWitness.of([2], [3, 0, 1]))

    def test_reversal_invariance_exhaustive(self):
        for y in corpus.all_binary_structures(3):
            for w in all_witnesses(y.size):
                reversed_w = ChainWitness(w.f_set, tuple(reversed(w.rest_order)))
                assert is_chainable_with(y, w) == is_chainable_with(y, reversed_w)

    def test_agrees_with_full_quantification(self):
        mixed = random_structures(random.Random(11), 30, sizes=(4, 5), arity=(1, 3))
        cases = [(y, all_witnesses(y.size)) for y in corpus.all_binary_structures(3) + mixed]
        # The cyclic order over the empty set only, where its rotations chain.
        over_empty = [w for w in all_witnesses(6) if not w.f_set]
        cases.append((corpus.cyclic_order_structure(6), over_empty))
        # Sorted-member subset types: size**arity past SHARED_WORDS_CAP.
        cases += [(y, all_witnesses(y.size)) for y in five_ary_structures()]
        outcomes = set()
        for y, witnesses in cases:
            for w in witnesses:
                decision = is_chainable_with(y, w)
                assert decision == chainable_full(y, w)
                outcomes.add((y.sig.max_arity(), decision))
        assert outcomes == {(a, d) for a in (1, 2, 3, 5) for d in (True, False)}

    def test_decides_long_witnesses(self):
        # check-chain takes witnesses of any length; the decision tests
        # C(r, j) subsets for j up to the largest arity, so it stays
        # polynomial in r.
        w = ChainWitness(frozenset(), tuple(range(80)))
        start = time.monotonic()
        assert is_chainable_with(corpus.chain_structure(80), w)
        assert not is_chainable_with(corpus.cycle_structure(80), w)
        assert time.monotonic() - start < 10.0


class TestEndpointMonotonicity:
    def test_freezing_an_endpoint_preserves_chainability(self):
        for y in corpus.all_binary_structures(3):
            for w in all_witnesses(y.size):
                if not w.rest_order or not is_chainable_with(y, w):
                    continue
                for x in (w.rest_order[0], w.rest_order[-1]):
                    grown = ChainWitness(
                        w.f_set | {x}, tuple(e for e in w.rest_order if e != x)
                    )
                    assert is_chainable_with(y, grown)

    def test_freezing_an_interior_point_can_break_chainability(self):
        # The 3-element linear order is chainable over the empty set, but
        # freezing the middle point leaves the jump 0 -> 2 free to move a
        # related pair onto an unrelated one.  Confirmed by both decision
        # routes; this is why monotonicity is an endpoint property.
        y = corpus.chain_structure(3)
        assert is_chainable_with(y, ChainWitness.of([], [0, 1, 2]))
        broken = ChainWitness.of([1], [0, 2])
        assert not is_chainable_with(y, broken)
        assert not chainable_full(y, broken)


class TestFindChainOrder:
    def test_chain_finds_natural_order(self, chain5):
        assert find_chain_order(chain5, []) == (0, 1, 2, 3, 4)

    def test_five_cycle_has_no_small_witness(self, c5):
        for size in range(4):
            for f in itertools.combinations(range(5), size):
                assert find_chain_order(c5, f) is None

    def test_pure_set_any_f(self):
        y = structure(4, {}, [])
        assert find_chain_order(y, [1, 2]) is not None

    def test_out_of_range_rejected(self, c5):
        with pytest.raises(DomainError):
            find_chain_order(c5, [7])

    def test_found_orders_validate(self):
        for y in corpus.all_binary_structures(3):
            for size in range(y.size + 1):
                for f in itertools.combinations(range(y.size), size):
                    order = find_chain_order(y, f)
                    if order is not None:
                        assert is_chainable_with(y, ChainWitness(frozenset(f), order))
                    else:
                        for perm in itertools.permutations(
                            sorted(set(range(y.size)) - set(f))
                        ):
                            assert not is_chainable_with(y, ChainWitness(frozenset(f), perm))


class TestKernel:
    def test_chain_kernel_is_empty(self):
        report = kernel(corpus.chain_structure(6), 2)
        assert report.min_size == 0
        assert report.minimal_sets[0][0] == ()

    def test_single_mark_kernel(self):
        report = kernel(corpus.unary_structure(5, [2]), 5)
        assert report.min_size == 1
        assert [f for f, _ in report.minimal_sets] == [(2,)]

    def test_five_cycle_kernel(self, c5):
        report = kernel(c5, 4)
        assert report.min_size == 4
        assert len(report.minimal_sets) == 5  # every 4-subset works

    def test_bound_exhausted_reports_failure(self, c5):
        report = kernel(c5, 3)
        assert report.min_size is None
        assert report.minimal_sets == ()
        assert report.search_bound == 3

    def test_bound_above_domain_rejected(self, c5):
        with pytest.raises(DomainError):
            kernel(c5, 6)

    def test_negative_bound_rejected(self, c5):
        with pytest.raises(DomainError):
            kernel(c5, -1)

    def test_matches_brute_force_on_planted_structures(self):
        rng = random.Random(7)
        for symbols, k in [([("E", 2)], 2), ([("E", 2), ("U", 1)], 1), ([("C", 3)], 2)]:
            sig = signature(symbols)
            x = random_companion(rng, 7, k)
            y = apply_definitions(x, random_definition_set(rng, x, sig), sig)
            report = kernel(y, k)
            assert (report.min_size, report.minimal_sets) == brute_force_kernel(y, k)

    def test_json_shape(self, c5):
        doc = kernel(c5, 4).to_dict()
        assert doc["min_size"] == 4
        assert doc["minimal_sets"][0] == {"f": [0, 1, 2, 3], "order": [4]}

    def test_reported_witnesses_validate(self, c5):
        for f, order in kernel(c5, 4).minimal_sets:
            assert is_chainable_with(c5, ChainWitness(frozenset(f), order))

    def test_empty_signature_kernel_is_empty(self):
        report = kernel(structure(4, {}, []), 4)
        assert report.min_size == 0


def one_edge(n):
    """One symmetric edge among n points: every point has one 1-type over
    the empty set, but the pair {0, 1} reads otherwise than the rest."""
    return structure(n, {"E": [(0, 1), (1, 0)]}, [("E", 2)])


@pytest.fixture
def steps(monkeypatch):
    """Purity steps taken, counted through a wrapper; past 10,000 steps it
    fails, so a search that lost a cut fails fast rather than hangs."""
    calls = [0]
    step = chainability._extends_purely

    def counted(*args):
        calls[0] += 1
        assert calls[0] <= 10_000, "search step budget exceeded"
        return step(*args)

    monkeypatch.setattr(chainability, "_extends_purely", counted)
    return calls


class TestSearchWork:
    """Purity steps the order search takes: a regression guard for the
    frozen set's cut and the forward check."""

    def test_mixed_one_types_take_no_step(self, steps):
        assert find_chain_order(corpus.unary_structure(8, [0, 1, 2, 3]), ()) is None
        assert steps[0] == 0

    def test_mixed_pair_readings_take_no_step(self, steps):
        assert find_chain_order(one_edge(12), ()) is None
        assert steps[0] == 0

    def test_one_edge_kernel_steps(self, steps):
        # Only F = {0, 1} passes the cut; its ten isolated points chain.
        report = kernel(one_edge(12), 2)
        assert report.minimal_sets == (((0, 1), tuple(range(2, 12))),)
        assert steps[0] == 55

    def test_cycle_kernel_steps(self, steps):
        report = kernel(corpus.cycle_structure(8), 8)
        assert (report.min_size, len(report.minimal_sets)) == (7, 8)
        assert steps[0] <= 148  # 8,000 without the two cuts


class TestDecisionTables:
    """The decision reads its subset types and its cut from one table per
    structure and frozen set; the order search builds its own table on each
    call."""

    def test_one_table_per_frozen_set(self):
        y = corpus.structure_from_mask(4, corpus.binary_masks_up_to_iso(4)[100])
        witnesses = all_witnesses(4)
        chainability._frozen_table.cache_clear()
        verdicts = [is_chainable_with(y, w) for w in witnesses]
        info = chainability._frozen_table.cache_info()
        assert (info.misses, info.hits) == (16, 49)
        assert len({w.f_set for w in witnesses}) == 16 and len(witnesses) == 65
        assert verdicts == [chainable_full(y, w) for w in witnesses]

    def test_a_failed_cut_takes_no_step(self, steps):
        for y in (corpus.unary_structure(8, [0, 1, 2, 3]), one_edge(12)):
            assert not is_chainable_with(y, ChainWitness.of([], range(y.size)))
        assert steps[0] == 0

    def test_rejected_witnesses_build_no_table(self):
        y = structure(10**12, {}, [("E", 2)])
        chainability._frozen_table.cache_clear()
        for w, message in [
            (ChainWitness.of([0], [0, 1]), "witness parts overlap"),
            (ChainWitness.of([], [0, 1]), "witness does not partition the domain"),
        ]:
            with pytest.raises(DomainError, match=message):
                is_chainable_with(y, w)
        assert chainability._frozen_table.cache_info().currsize == 0

    def test_the_search_keeps_no_table(self):
        chainability._frozen_table.cache_clear()
        assert kernel(corpus.cycle_structure(6), 6).min_size == 5
        assert find_chain_order(corpus.chain_structure(5), ()) == (0, 1, 2, 3, 4)
        assert chainability._frozen_table.cache_info().currsize == 0


class TestDegenerateSizes:
    def test_size_zero_domain(self):
        y = structure(0, {}, [("E", 2)])
        assert is_chainable_with(y, ChainWitness.of([], []))
        assert kernel(y, 0).min_size == 0

    def test_size_one_domain(self):
        y = structure(1, {"E": [(0, 0)]}, [("E", 2)])
        assert is_chainable_with(y, ChainWitness.of([], [0]))
        assert profile(y, 1).values == (1,)


class TestProfile:
    def test_chain_profile_all_ones(self):
        assert profile(corpus.chain_structure(6), 6).values == (1, 1, 1, 1, 1, 1)

    def test_five_cycle_profile(self, c5):
        report = profile(c5, 5)
        assert report.values == (1, 2, 2, 1, 1)
        assert report.values[1] == 2  # edge and non-edge pair types

    def test_pure_set_profile(self):
        assert profile(structure(4, {}, []), 4).values == (1, 1, 1, 1)

    def test_marked_set_profile(self):
        assert profile(corpus.unary_structure(5, [2]), 5).values == (2, 2, 2, 2, 1)

    def test_bound_exceeded_rejected(self, c5):
        with pytest.raises(UnsupportedSizeError):
            profile(c5, 6)

    def test_negative_bound_rejected(self, c5):
        with pytest.raises(DomainError):
            profile(c5, -3)
        assert profile(c5, 0).values == ()

    def test_counts_match_forms(self, c5):
        for y in (c5, corpus.cycle_structure(8)):
            values = profile(y, y.size).values
            assert values == tuple(len(age_forms(y, n)) for n in range(1, y.size + 1))


class TestProfileBound:
    def test_chain_with_zero_kernel(self):
        assert check_profile_bound(corpus.chain_structure(6), 0, 6)

    def test_marked_set_with_kernel_one(self):
        assert check_profile_bound(corpus.unary_structure(5, [2]), 1, 5)

    def test_five_cycle_with_kernel_four(self, c5):
        assert check_profile_bound(c5, 4, 5)

    def test_violation_detected(self, c5):
        assert not check_profile_bound(c5, 0, 5)


class TestTraceIsomorphism:
    def test_single_points_always_agree(self, chain5):
        w = ChainWitness.of([], [0, 1, 2, 3, 4])
        assert check_trace_isomorphism(chain5, w, 1)

    def test_chain_all_sizes(self, chain5):
        w = ChainWitness.of([], [0, 1, 2, 3, 4])
        for n in range(1, 6):
            assert check_trace_isomorphism(chain5, w, n)

    def test_precondition_violation_rejected(self, c4):
        with pytest.raises(DomainError):
            check_trace_isomorphism(c4, ChainWitness.of([], [0, 1, 2, 3]), 2)

    def test_holds_for_all_chainable_witnesses(self):
        for y in corpus.all_binary_structures(3):
            for w in all_witnesses(y.size):
                if is_chainable_with(y, w):
                    for n in range(1, y.size + 1):
                        assert check_trace_isomorphism(y, w, n)


class TestAge:
    def test_substructure_age_contained(self, c5):
        # Removing a vertex from the 5-cycle leaves a 4-path, so every age
        # level of the path embeds.
        z = corpus.path_structure(4)
        for n in range(1, 5):
            assert age_subset(z, c5, n)

    def test_path_pairs_inside_cycle_pairs(self, c5):
        assert age_subset(corpus.path_structure(4), c5, 2)

    def test_missing_type_detected(self, c5):
        empty = corpus.empty_relation_structure(5)
        assert not age_subset(c5, empty, 2)

    def test_signature_mismatch_rejected(self, c5, chain5):
        with pytest.raises(DomainError):
            age_subset(c5, chain5, 2)

    def test_age_subset_past_cap_is_unsupported_size(self):
        y = corpus.chain_structure(9)
        with pytest.raises(UnsupportedSizeError):
            age_subset(y, y, 9)

    def test_age_forms_counts(self, c5):
        assert len(age_forms(c5, 2)) == 2
        assert len(age_forms(c5, 3)) == 2

    def test_age_representatives_are_deduplicated(self, c5):
        reps = age_representatives(c5, 3)
        assert len(reps) == 2
        from chainlab.morphism import canonical_form

        assert len({canonical_form(r) for r in reps}) == 2
