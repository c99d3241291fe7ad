import itertools
import math
import random

import pytest
from conftest import five_ary_structures

from chainlab import corpus
from chainlab.chainability import ChainWitness, find_chain_order, is_chainable_with
from chainlab.core import signature, structure
from chainlab.errors import DomainError, UnsupportedSizeError
from chainlab.gpw import (
    ChainOrderFamily,
    classify_family,
    enumerate_chaining_orders,
    expand_classification,
    perturbation_closure,
    rotation_closure,
)
from chainlab.logic import apply_definitions
from chainlab.verify import chainable_full, random_companion, random_definition_set


class TestEnumeration:
    def test_chain_family_is_order_and_reverse(self, chain5):
        fam = enumerate_chaining_orders(chain5, [])
        assert set(fam.orders) == {(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)}

    def test_pentagon_family_has_ten_members(self, pentagon):
        fam = enumerate_chaining_orders(pentagon, [])
        assert len(fam.orders) == 10
        rotations = {tuple((i + s) % 5 for i in range(5)) for s in range(5)}
        assert set(fam.orders) == rotations | {tuple(reversed(o)) for o in rotations}

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_cyclic_orders_give_rotation_families(self, m):
        fam = enumerate_chaining_orders(corpus.cyclic_order_structure(m), [])
        assert len(fam.orders) == 2 * m
        cls = classify_family(fam)
        assert cls.tag == "RotationFamily"
        assert cls.base == min(fam.orders)

    def test_marked_point_family_is_everything(self):
        fam = enumerate_chaining_orders(corpus.unary_structure(5, [0]), [0])
        assert len(fam.orders) == 24

    def test_every_member_validates(self, pentagon):
        fam = enumerate_chaining_orders(pentagon, [])
        for order in fam.orders:
            assert is_chainable_with(pentagon, ChainWitness(fam.f_set, order))

    def test_matches_permutation_filter(self):
        # The type-purity search lists exactly the arrangements that pass the
        # full map oracle, which shares no code with it, in
        # itertools.permutations order.  On the 6-point structures chainable
        # over a planted frozen set, most frozen sets leave a complement of
        # several 1-types, and the rest have prefixes that some remaining
        # element cannot extend, so both cuts of the search fire.  The 5-ary
        # structures have sorted-member subset types.
        sample = random.Random(3).sample(corpus.all_binary_structures(4), 100)
        ternary = [corpus.cyclic_order_structure(5)]
        rng, planted = random.Random(5), []
        for symbols, k in [([("E", 2)], 2), ([("E", 2), ("U", 1)], 1), ([("C", 3)], 2)]:
            sig = signature(symbols)
            x = random_companion(rng, 6, k)
            planted.append(apply_definitions(x, random_definition_set(rng, x, sig), sig))
        for y in corpus.all_binary_structures(3) + sample + ternary + planted + five_ary_structures():
            for size in range(y.size + 1):
                for f in itertools.combinations(range(y.size), size):
                    rest = sorted(set(range(y.size)) - set(f))
                    want = tuple(
                        p
                        for p in itertools.permutations(rest)
                        if chainable_full(y, ChainWitness(frozenset(f), p))
                    )
                    assert enumerate_chaining_orders(y, f).orders == want
                    assert find_chain_order(y, f) == (want[0] if want else None)

    def test_cyclic_order_on_eight_over_a_point(self):
        fam = enumerate_chaining_orders(corpus.cyclic_order_structure(8), [0])
        assert fam.orders == ((1, 2, 3, 4, 5, 6, 7), (7, 6, 5, 4, 3, 2, 1))

    def test_rest_cap_enforced(self):
        with pytest.raises(UnsupportedSizeError):
            enumerate_chaining_orders(structure(9, {}, [("E", 2)]), [])

    def test_out_of_range_f_rejected(self, chain5):
        with pytest.raises(DomainError):
            enumerate_chaining_orders(chain5, [9])

    def test_reversal_closure_validated_by_constructor(self):
        with pytest.raises(DomainError):
            ChainOrderFamily(frozenset(), ((0, 1, 2),))

    def test_all_families_reversal_closed(self):
        for y in corpus.all_binary_structures(3):
            for f_size in range(y.size + 1):
                for f in itertools.combinations(range(y.size), f_size):
                    fam = enumerate_chaining_orders(y, f)
                    members = set(fam.orders)
                    assert all(tuple(reversed(o)) in members for o in members)


class TestPatterns:
    def test_rotation_closure_of_pentagon_base(self):
        closure = rotation_closure((0, 1, 2, 3, 4))
        assert len(closure) == 10
        assert (1, 2, 3, 4, 0) in closure
        assert (0, 4, 3, 2, 1) in closure

    def test_perturbation_closure_trivial_ends(self):
        assert perturbation_closure((0, 1, 2), 0, 0) == frozenset(
            {(0, 1, 2), (2, 1, 0)}
        )

    def test_perturbation_closure_counts(self):
        closure = perturbation_closure((0, 1, 2, 3), 2, 1)
        # 2! * 1! forward orders plus their reverses.
        assert len(closure) == 4

    def test_bad_block_sizes_rejected(self):
        with pytest.raises(DomainError):
            perturbation_closure((0, 1), 2, 1)


class TestClassification:
    def test_all_orders(self):
        fam = enumerate_chaining_orders(corpus.unary_structure(5, [0]), [0])
        cls = classify_family(fam)
        assert cls.tag == "AllOrders"
        assert cls.evidence["order_count"] == 24

    def test_rotation_family(self, pentagon):
        fam = enumerate_chaining_orders(pentagon, [])
        cls = classify_family(fam)
        assert cls.tag == "RotationFamily"
        assert cls.base == (0, 1, 2, 3, 4)  # lexicographically least valid base

    def test_bounded_perturbation_degenerate(self, chain5):
        fam = enumerate_chaining_orders(chain5, [])
        cls = classify_family(fam)
        assert cls.tag == "BoundedPerturbation"
        assert cls.k_set == () and cls.h_set == ()
        assert cls.base == (0, 1, 2, 3, 4)

    def test_empty_family_rejected(self):
        with pytest.raises(DomainError):
            classify_family(ChainOrderFamily(frozenset(), ()))

    def test_small_rest_overlap_documented(self):
        fam = ChainOrderFamily(frozenset({2}), ((0, 1), (1, 0)))
        cls = classify_family(fam)
        assert cls.tag == "AllOrders"
        assert "RotationFamily" in cls.evidence["also_matches"]
        assert "BoundedPerturbation" in cls.evidence["also_matches"]

    def test_unmatched_family_reports_a_witness(self):
        # Closed under reversal, but neither a rotation closure (0123 has
        # eight rotations and reverses) nor a perturbation of one base.  The
        # witness is the least order in exactly one of the family and the
        # rotation closure of its least order: 0213.
        fam = ChainOrderFamily(frozenset(), ((0, 1, 2, 3), (3, 2, 1, 0), (0, 2, 1, 3), (3, 1, 2, 0)))
        cls = classify_family(fam)
        assert cls.tag == "Unmatched"
        assert cls.base is None and cls.k_set is None and cls.h_set is None
        assert cls.evidence["witness"] == [0, 2, 1, 3]
        assert cls.evidence["order_count"] == 4
        assert cls.evidence["also_matches"] == []
        with pytest.raises(DomainError):
            expand_classification(cls, range(4))

    def test_base_and_reverse_prefer_perturbation_on_three_points(self):
        # The rotation closure of a 3-point order has six members, so a
        # {base, base*} family falls through to the perturbation shape with
        # empty end blocks.
        fam = ChainOrderFamily(frozenset(), ((0, 1, 2), (2, 1, 0)))
        cls = classify_family(fam)
        assert cls.tag == "BoundedPerturbation"
        assert cls.k_set == () and cls.h_set == ()

    def test_soundness_by_expansion(self):
        scopes = [
            (corpus.unary_structure(5, [0]), frozenset({0})),
            (corpus.pentagon_cyclic_order(), frozenset()),
            (corpus.chain_structure(5), frozenset()),
        ]
        for y, f in scopes:
            fam = enumerate_chaining_orders(y, f)
            cls = classify_family(fam)
            rest = sorted(set(range(y.size)) - f)
            assert expand_classification(cls, rest) == frozenset(fam.orders)

    def test_presentation_invariance(self, pentagon):
        fam = enumerate_chaining_orders(pentagon, [])
        rng = random.Random(9)
        shuffled = list(fam.orders)
        rng.shuffle(shuffled)
        assert classify_family(ChainOrderFamily(fam.f_set, tuple(shuffled))) == classify_family(fam)

    def test_all_orders_count_matches_factorial(self):
        fam = enumerate_chaining_orders(corpus.unary_structure(4, [0]), [0])
        assert len(fam.orders) == math.factorial(3)
        assert classify_family(fam).tag == "AllOrders"

    def test_serialization_shape(self, pentagon):
        fam = enumerate_chaining_orders(pentagon, [])
        doc = fam.to_dict()
        assert doc["f"] == []
        assert doc["orders"] == sorted(doc["orders"])
        cls_doc = classify_family(fam).to_dict()
        assert cls_doc["tag"] == "RotationFamily"
        assert cls_doc["base"] == [0, 1, 2, 3, 4]
