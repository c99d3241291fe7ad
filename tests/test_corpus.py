import hashlib

import pytest

from chainlab import corpus
from chainlab.errors import DomainError, UnsupportedSizeError
from chainlab.morphism import canonical_form


class TestSplitMix64:
    def test_reference_first_outputs_for_seed_zero(self):
        # Published test vector for the splitmix64 finalizer.
        rng = corpus.SplitMix64(0)
        assert rng.next64() == 0xE220A8397B1DCDAF
        assert rng.next64() == 0x6E789E6AA1B965F4
        assert rng.next64() == 0x06C45D188009454F

    def test_determinism(self):
        a = corpus.SplitMix64(123456789)
        b = corpus.SplitMix64(123456789)
        assert [a.next64() for _ in range(20)] == [b.next64() for _ in range(20)]

    def test_chance_extremes(self):
        rng = corpus.SplitMix64(7)
        assert not any(rng.chance(0.0) for _ in range(50))
        assert all(rng.chance(1.0) for _ in range(50))


class TestGenerate:
    def test_identical_specs_identical_structures(self):
        spec = corpus.RandomSpec(seed=7, size=5, density=0.4)
        assert corpus.generate(spec) == corpus.generate(spec)

    def test_density_zero_empty(self):
        y = corpus.generate(corpus.RandomSpec(seed=1, size=4, density=0.0))
        assert y.relation("E") == frozenset()

    def test_density_one_full(self):
        y = corpus.generate(corpus.RandomSpec(seed=1, size=4, density=1.0))
        assert len(y.relation("E")) == 16

    def test_symbol_naming(self):
        one = corpus.generate(corpus.RandomSpec(seed=3, size=3, symbols=1))
        two = corpus.generate(corpus.RandomSpec(seed=3, size=3, symbols=2))
        assert one.sig.names == ("E",)
        assert two.sig.names == ("E0", "E1")

    def test_size_cap(self):
        with pytest.raises(UnsupportedSizeError):
            corpus.RandomSpec(seed=1, size=9)

    def test_bad_density_rejected(self):
        with pytest.raises(DomainError):
            corpus.RandomSpec(seed=1, size=3, density=1.5)


class TestExhaustiveEnumeration:
    def test_class_counts_match_known_series(self):
        # Binary relations on n unlabeled points: 1, 2, 10, 104, 3044.
        assert [len(corpus.binary_masks_up_to_iso(m)) for m in range(5)] == [
            1,
            2,
            10,
            104,
            3044,
        ]

    def test_representatives_pairwise_non_isomorphic(self):
        for m in (2, 3):
            forms = [canonical_form(y) for y in corpus.all_binary_structures(m)]
            assert len(set(forms)) == len(forms)

    def test_representatives_cover_all_structures(self):
        # Every mask's generic canonical form appears among the
        # representatives: the bit-level dedup agrees with the brute-force
        # canonizer.
        for m in (2, 3):
            rep_forms = {canonical_form(y) for y in corpus.all_binary_structures(m)}
            all_forms = {
                canonical_form(corpus.structure_from_mask(m, mask))
                for mask in range(1 << (m * m))
            }
            assert rep_forms == all_forms

    def test_size_four_dedup_spot_check(self):
        # Sampled masks must share their generic canonical form with some
        # representative, and distinct representatives must differ.
        import random

        rep_forms = {canonical_form(y) for y in corpus.all_binary_structures(4)}
        assert len(rep_forms) == 3044
        rng = random.Random(4)
        for mask in rng.sample(range(1 << 16), 250):
            form = canonical_form(corpus.structure_from_mask(4, mask))
            assert form in rep_forms

    def test_representatives_are_least_masks_of_their_classes(self):
        # The exact masks key recorded sweep results and seeded samples, so
        # each representative must be the least mask of its class, ascending.
        for m in range(4):
            least = {}
            for mask in range(1 << (m * m)):
                least.setdefault(canonical_form(corpus.structure_from_mask(m, mask)), mask)
            assert corpus.binary_masks_up_to_iso(m) == tuple(sorted(least.values()))

    def test_size_four_representatives_are_pinned(self):
        reps = corpus.binary_masks_up_to_iso(4)
        assert (
            hashlib.sha256(repr(reps).encode()).hexdigest()
            == "959ec3c5e92c5ad7649ae57f73d1f211322a06ccf1060482431d975e361de960"
        )

    def test_enumeration_cap(self):
        with pytest.raises(UnsupportedSizeError):
            corpus.binary_masks_up_to_iso(5)


class TestFixtures:
    def test_pentagon_triples(self):
        pent = corpus.pentagon_cyclic_order()
        c = pent.relation("C")
        assert (0, 1, 2) in c
        assert (0, 2, 1) not in c
        assert len(c) == 30  # 5*4*3 / 2: each distinct triple once per orientation

    def test_cycle_edge_count(self):
        assert len(corpus.cycle_structure(5).relation("E")) == 10

    def test_chain_is_strict_total(self):
        y = corpus.chain_structure(4)
        lt = y.relation("lt")
        assert all((i, i) not in lt for i in range(4))
        assert len(lt) == 6
