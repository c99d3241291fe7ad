import ast
import itertools
import math
import random
import time
from collections import Counter

import pytest
from conftest import five_ary_structures

from chainlab import core, corpus, morphism
from chainlab.chainability import check_trace_isomorphism, is_chainable_with
from chainlab.core import Signature, induced_substructure, structure
from chainlab.errors import DomainError, UnsupportedSizeError
from chainlab.logic import apply_definitions
from chainlab.morphism import (
    PartialMap,
    canonical_form,
    enumerate_partial_automorphisms,
    find_isomorphism,
    is_partial_automorphism,
    substructure_forms,
)
from chainlab.verify import (
    all_witnesses,
    canonical_form_full,
    random_companion,
    random_definition_set,
    random_structures,
)


def brute_force_partial_automorphisms(y, max_dom):
    """Independent oracle: all injective partial maps, filtered."""
    out = []
    for size in range(max_dom + 1):
        for sources in itertools.combinations(range(y.size), size):
            for targets in itertools.permutations(range(y.size), size):
                p = PartialMap(tuple(zip(sources, targets)))
                if is_partial_automorphism(y, p):
                    out.append(p)
    return out


class TestPartialMap:
    def test_repeated_source_rejected(self):
        with pytest.raises(DomainError):
            PartialMap(((0, 1), (0, 2)))

    def test_repeated_target_rejected(self):
        with pytest.raises(DomainError):
            PartialMap(((0, 1), (2, 1)))

    def test_pairs_are_sorted(self):
        assert PartialMap(((2, 3), (0, 1))).pairs == ((0, 1), (2, 3))


class TestIsPartialAutomorphism:
    def test_increasing_map_on_chain(self, chain5):
        assert is_partial_automorphism(chain5, PartialMap.of({0: 1, 2: 3}))

    def test_order_violating_map_on_chain(self, chain5):
        assert not is_partial_automorphism(chain5, PartialMap.of({0: 1, 2: 0}))

    def test_edge_preserving_map_on_cycle(self, c5):
        # All four tuples over {0,1} keep their membership under 0->0, 1->4.
        assert is_partial_automorphism(c5, PartialMap.of({0: 0, 1: 4}))

    def test_out_of_range_rejected(self, c5):
        with pytest.raises(DomainError):
            is_partial_automorphism(c5, PartialMap.of({0: 9}))

    def test_empty_map_always_passes(self, c5):
        assert is_partial_automorphism(c5, PartialMap(()))

    def test_closed_under_restriction(self):
        for y in corpus.all_binary_structures(3) + [corpus.unary_structure(4, [1])]:
            for p in enumerate_partial_automorphisms(y, y.size):
                for r in range(len(p.pairs)):
                    for sub in itertools.combinations(p.pairs, r):
                        assert is_partial_automorphism(y, PartialMap(sub))


class TestEnumeration:
    def test_pure_set_singletons(self):
        y = structure(3, {}, [])
        maps = list(enumerate_partial_automorphisms(y, 1))
        assert len(maps) == 10  # the empty map plus 9 singleton injections
        assert maps[0] == PartialMap(())

    def test_three_chain_count(self):
        # Increasing partial injections of a 3-chain: 1 + 9 + 9 + 1.
        y = corpus.chain_structure(3)
        maps = list(enumerate_partial_automorphisms(y, 3))
        assert len(maps) == 20
        oracle = brute_force_partial_automorphisms(y, 3)
        assert set(maps) == set(oracle)

    def test_unary_mark_must_be_preserved(self):
        y = corpus.unary_structure(2, [0])
        maps = list(enumerate_partial_automorphisms(y, 1))
        assert [m.pairs for m in maps] == [(), ((0, 0),), ((1, 1),)]

    def test_matches_oracle_on_small_structures(self):
        for y in corpus.all_binary_structures(3):
            got = list(enumerate_partial_automorphisms(y, 2))
            assert set(got) == set(brute_force_partial_automorphisms(y, 2))
            assert len(got) == len(set(got))

    def test_lexicographic_order(self, c4):
        maps = [m.pairs for m in enumerate_partial_automorphisms(c4, 2)]
        assert maps == sorted(maps)

    def test_max_dom_above_size_rejected(self, c4):
        with pytest.raises(DomainError):
            list(enumerate_partial_automorphisms(c4, 5))

    def test_negative_max_dom_rejected(self):
        with pytest.raises(DomainError, match="non-negative"):
            list(enumerate_partial_automorphisms(corpus.chain_structure(3), -1))

    def test_chain_reversal_has_same_maps(self):
        for r in range(6):
            fwd = corpus.chain_structure(r)
            bwd = structure(
                r,
                {"lt": [(i, j) for i in range(r) for j in range(r) if i > j]},
                [("lt", 2)],
            )
            assert {p.pairs for p in enumerate_partial_automorphisms(fwd, r)} == {
                p.pairs for p in enumerate_partial_automorphisms(bwd, r)
            }


class TestFindIsomorphism:
    def test_paths_with_different_labels(self):
        a = corpus.path_structure(3)
        b = structure(3, {"E": [(1, 0), (0, 1), (0, 2), (2, 0)]}, [("E", 2)])
        p = find_isomorphism(a, b)
        assert p is not None
        # The middle vertex of a must land on the middle vertex of b (0).
        assert dict(p.pairs)[1] == 0

    def test_cycle_vs_path_absent(self, c5):
        assert find_isomorphism(c5, corpus.path_structure(5)) is None

    def test_identity_case(self, c5):
        assert find_isomorphism(c5, c5) is not None

    def test_signature_mismatch_rejected(self, c5, chain5):
        with pytest.raises(DomainError):
            find_isomorphism(c5, chain5)

    def test_agrees_with_canonical_form(self):
        reps = corpus.all_binary_structures(3)
        for a, b in itertools.combinations(reps[:40], 2):
            assert find_isomorphism(a, b) is None
            assert canonical_form(a) != canonical_form(b)


class TestCanonicalForm:
    def test_relabeling_invariance(self, c5):
        perm = (2, 0, 4, 1, 3)
        relabeled = structure(
            5,
            {"E": [(perm[a], perm[b]) for a, b in c5.relation("E")]},
            [("E", 2)],
        )
        assert canonical_form(c5) == canonical_form(relabeled)

    def test_relabeled_copy_runs_no_second_search(self):
        # Each element of the chain holds the order in a different number of
        # pairs, so both copies are keyed in one invariant order.
        y = corpus.chain_structure(6)
        perm = (3, 5, 0, 4, 1, 2)
        relabeled = structure(6, {"lt": [(perm[a], perm[b]) for a, b in y.relation("lt")]}, y.sig)
        morphism._subset_form.cache_clear()
        morphism._canonical_form_cached.cache_clear()
        assert canonical_form(relabeled) == canonical_form(y)
        assert morphism._canonical_form_cached.cache_info().misses == 1

    def test_cycle_differs_from_path(self, c5):
        assert canonical_form(c5) != canonical_form(corpus.path_structure(5))

    def test_pure_set_form(self):
        assert canonical_form(structure(4, {}, [])) == canonical_form(structure(4, {}, []))

    def test_size_cap(self):
        with pytest.raises(UnsupportedSizeError):
            canonical_form(structure(9, {}, []))

    def test_substructure_forms_match_direct_loop(self):
        # The forms are read off y without building a substructure; building
        # each one and taking its canonical form is the oracle.
        inputs = list(corpus.fixture_structures())
        # A 4-ary relation on 5 points is past the bit-mask key at n = 5, the
        # cyclic order on 8 points has exactly SHARED_WORDS_CAP words, and the
        # dense 5-ary relation's 4-subsets read their members from the words.
        inputs += random_structures(random.Random(9), 2, sizes=(5,), arity=(4, 4))
        inputs.append(corpus.cyclic_order_structure(8))
        inputs.append(five_ary_structures()[-1])
        for y in inputs:
            for n in range(1, y.size + 2):  # n = size + 1 has no subsets
                direct = {}
                for h in itertools.combinations(range(y.size), n):
                    # The key's decoder against a plain relabel.
                    relabeled = [
                        sorted(tuple(map(h.index, t)) for t in ts if set(h).issuperset(t))
                        for ts in y.relations
                    ]
                    key = core._subset_key(y.sig, y.relations, h)
                    assert core._members(y.sig, n, key) == relabeled
                    direct[h] = canonical_form(induced_substructure(y, h))
                # Searched again, not read from the entries canonical_form
                # or an earlier listing left.
                morphism._listed_forms.cache_clear()
                morphism._subset_form.cache_clear()
                morphism._canonical_form_cached.cache_clear()
                forms = substructure_forms(y, n)
                assert list(forms.items()) == list(direct.items())
        for n in (0, -1):
            with pytest.raises(DomainError):
                substructure_forms(corpus.cycle_structure(5), n)
        with pytest.raises(UnsupportedSizeError):
            substructure_forms(corpus.cycle_structure(9), 9)

    def test_isomorphic_subsets_share_one_cache_entry(self):
        # The induced 3-subsets of C8 are paths, an edge and a point, or
        # three points: 7 plain keys, 3 forms.  A planted 6-point ternary
        # structure has 6-12 plain keys per size but at most 4 forms.
        rng = random.Random(3)
        sig = Signature((("C", 3),))
        inputs = [(corpus.cycle_structure(8), 3)]
        for _ in range(3):
            x = random_companion(rng, 6, 2)
            y = apply_definitions(x, random_definition_set(rng, x, sig), sig)
            inputs += [(y, n) for n in range(1, 7)]
        for y, n in inputs:
            morphism._listed_forms.cache_clear()
            morphism._subset_form.cache_clear()
            morphism._canonical_form_cached.cache_clear()
            forms = substructure_forms(y, n)
            distinct = len(set(forms.values()))
            assert morphism._canonical_form_cached.cache_info().misses == distinct, (y, n)
        c8 = inputs[0][0]
        plain_keys = {core._subset_key(c8.sig, c8.relations, h) for h in itertools.combinations(range(8), 3)}
        assert len(plain_keys) == 7

    def test_shuffled_copy_has_the_same_subset_forms(self):
        rng = random.Random(11)
        inputs = [corpus.cycle_structure(7), corpus.cyclic_order_structure(6)]
        inputs += random_structures(rng, 4, sizes=(6,), arity=(1, 3))
        inputs += random_structures(rng, 2, sizes=(5,), arity=(4, 4))  # sorted-member keys
        for y in inputs:
            perm = list(range(y.size))
            rng.shuffle(perm)
            relations = {
                name: [tuple(perm[x] for x in t) for t in r] for name, r in zip(y.sig.names, y.relations)
            }
            z = structure(y.size, relations, y.sig)
            for n in range(1, y.size + 1):
                assert Counter(substructure_forms(z, n).values()) == Counter(
                    substructure_forms(y, n).values()
                ), (y, n)

    def test_sparse_nine_ary_subset_forms_are_fast(self):
        # 8**9 words: the invariant order is counted from the 6 members.  A
        # scan of all words takes about 22 s on a 2-core Xeon, the search
        # 0.4-0.7 s.
        rng = random.Random(1)
        tuples = {tuple(rng.randrange(8) for _ in range(9)) for _ in range(6)}
        y = structure(8, {"R": tuples}, [("R", 9)])
        morphism._subset_form.cache_clear()
        morphism._canonical_form_cached.cache_clear()
        start = time.perf_counter()
        (form,) = substructure_forms(y, 8).values()
        assert time.perf_counter() - start < 3.0
        assert form == canonical_form(y)

    def test_subset_budget(self):
        huge = structure(10**12, {"E": []}, [("E", 2)])
        with pytest.raises(UnsupportedSizeError, match="capped at 1000000 subsets"):
            substructure_forms(huge, 1)
        assert math.comb(20, 10) <= morphism.SUBSET_BUDGET < math.comb(2000, 2)
        with pytest.raises(UnsupportedSizeError):
            substructure_forms(structure(2000, {"E": []}, [("E", 2)]), 2)
        assert substructure_forms(huge, 10**12 + 1) == {}

    def test_returned_forms_are_a_fresh_dict(self):
        y = corpus.cycle_structure(5)
        first = substructure_forms(y, 2)
        expected = dict(first)
        first[(0, 1)] = b"mutated"
        del first[(3, 4)]
        assert substructure_forms(y, 2) == expected

    def test_one_listing_per_structure_and_size(self):
        # The trace checks of every chainable witness of one structure at
        # one size read one listing; each structure of one signature and
        # size gets its own.
        ys = corpus.all_binary_structures(3)
        morphism._listed_forms.cache_clear()
        for y in ys:
            witnesses = [w for w in all_witnesses(3) if is_chainable_with(y, w)]
            for n in (1, 2, 3):
                assert all(check_trace_isomorphism(y, w, n) for w in witnesses)
        assert morphism._listed_forms.cache_info().misses == 3 * len(ys)
        for y in ys:
            subsets = itertools.combinations(range(3), 2)
            assert list(substructure_forms(y, 2).values()) == [
                canonical_form(induced_substructure(y, h)) for h in subsets
            ]

    def test_large_listings_are_not_stored(self):
        # 12 choose 6 = 924 subsets pass SHARED_WORDS_CAP; 12 choose 2 do not.
        y = structure(12, {"E": [(0, 1), (1, 2), (5, 9)]}, [("E", 2)])
        morphism._listed_forms.cache_clear()
        assert len(substructure_forms(y, 6)) == 924
        assert morphism._listed_forms.cache_info().currsize == 0
        assert len(substructure_forms(y, 2)) == 66
        assert morphism._listed_forms.cache_info().currsize == 1

    def test_matches_full_scan(self):
        inputs = [y for m in range(5) for y in corpus.all_binary_structures(m)]
        inputs += random_structures(random.Random(6), 120, sizes=(5, 6), arity=(1, 3))
        # A 4-ary relation on 5 points has more words than a bit-mask key
        # covers, so these are keyed by their sorted members.
        inputs += random_structures(random.Random(7), 8, sizes=(5,), arity=(4, 4))
        for y in (corpus.cycle_structure(8), corpus.cyclic_order_structure(8)):
            # Induced substructures repeat (every k-subset of the cyclic
            # order induces the same one); each distinct one is scanned once.
            subs = {
                induced_substructure(y, h)
                for k in range(1, 9)
                for h in itertools.combinations(range(8), k)
            }
            inputs += sorted(subs, key=lambda z: (z.size, sorted(map(sorted, z.relations))))
        # Shapes random_structures cannot make (its arity is capped at 4):
        # sparse 5- and 7-ary relations, whose rows are nearly all empty, and
        # a unary symbol beside a ternary one; each with two shuffled copies.
        rng = random.Random(13)
        hand_built = []
        for m, ar, k in [(6, 5, 6), (7, 5, 6), (7, 5, 3), (6, 7, 6)]:
            tuples = {tuple(rng.randrange(m) for _ in range(ar)) for _ in range(k)}
            hand_built.append(structure(m, {"R": tuples}, [("R", ar)]))
        ternary = [(0, 1, 2), (2, 1, 0), (3, 3, 5), (4, 5, 5), (1, 4, 1)]
        unary = [(0,), (3,), (4,)]
        hand_built.append(structure(6, {"U": unary, "T": ternary}, [("U", 1), ("T", 3)]))
        shuffled_copies = []
        for y in hand_built:
            for _ in range(2):
                perm = list(range(y.size))
                rng.shuffle(perm)
                relations = {
                    name: [tuple(perm[x] for x in t) for t in r]
                    for name, r in zip(y.sig.names, y.relations)
                }
                shuffled_copies.append((y, structure(y.size, relations, y.sig)))
        inputs += hand_built + [z for _, z in shuffled_copies]
        assert {y.size for y in inputs} == set(range(9))
        for y in inputs:
            assert canonical_form(y) == canonical_form_full(y), y
        for y, z in shuffled_copies:
            assert canonical_form(z) == canonical_form(y), (y, z)

    @pytest.mark.parametrize("name", ["empty2", "empty3", "complete", "cyclic", "co-C8", "Q3", "K44"])
    def test_symmetric_eight_point_structures_are_fast(self, name):
        # Each has a large automorphism group: without the twin cut, or with
        # a cut that misses, the search visits about 8! leaves.
        pairs = [(a, b) for a in range(8) for b in range(8) if a != b]
        c8 = corpus.cycle_structure(8).relation("E")
        edges = {
            "empty2": [],
            "complete": pairs,
            "co-C8": [p for p in pairs if p not in c8],
            "Q3": [(a, b) for a, b in pairs if bin(a ^ b).count("1") == 1],
            "K44": [(a, b) for a, b in pairs if (a < 4) != (b < 4)],
        }
        if name == "empty3":
            y = structure(8, {"E": []}, [("E", 3)])
        elif name == "cyclic":
            y = corpus.cyclic_order_structure(8)
        else:
            y = structure(8, {"E": edges[name]}, [("E", 2)])
        morphism._subset_form.cache_clear()
        morphism._canonical_form_cached.cache_clear()
        start = time.perf_counter()
        form = canonical_form(y)
        assert time.perf_counter() - start < 0.1
        shuffled = list(range(8))
        random.Random(8).shuffle(shuffled)
        relabeled = structure(
            8,
            {y.sig.names[0]: [tuple(shuffled[x] for x in t) for t in y.relations[0]]},
            y.sig,
        )
        assert canonical_form(relabeled) == form

    def test_hex_serialization(self, c5):
        form = canonical_form(c5)
        assert bytes.fromhex(form.hex()) == form
        size, symbols, (edges,) = ast.literal_eval(form.decode("utf-8"))
        assert (size, symbols, len(edges)) == (5, (("E", 2),), 10)
