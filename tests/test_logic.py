import itertools
import random

import pytest

from chainlab import corpus, logic, morphism
from chainlab.chainability import ChainWitness, age_representatives, is_chainable_with
from chainlab.core import (
    CACHE_SIZE,
    Companion,
    Signature,
    companion_as_structure,
    companion_structure,
    reduct,
    structure,
    validate_companion_axioms,
    words,
)
from chainlab.errors import DomainError, NotSimplyDefinableError
from chainlab.formulas import Eq, Exists, Not, Rel, and_all, eval_formula, format_formula
from chainlab.logic import (
    LiteralType,
    age_sentence,
    apply_definitions,
    check_age_sentence_agreement,
    definition_formula,
    extract_definitions,
    literal_type,
    make_definition_set,
    quotient_translate,
    render_literal_type,
    star_translate,
    theory_star_sentences,
    verify_definitions,
)
from chainlab.verify import random_companion, random_definition_set, random_formula


class TestLiteralType:
    def test_diagonal_pair(self):
        x = companion_structure(3, (), (0, 1, 2))
        t = literal_type(x, (1, 1))
        assert t.block_of == (0, 0)
        assert t.marks == (None,)

    def test_descending_pair(self):
        x = companion_structure(3, (), (0, 1, 2))
        t = literal_type(x, (2, 0))
        assert t.block_of == (1, 0)  # second variable's value comes first

    def test_constant_membership(self):
        x = companion_structure(3, (0,), (1, 2))
        t = literal_type(x, (0, 2))
        assert t.block_of == (0, 1)
        assert t.marks == (0, None)
        assert t.num_constants == 1

    def test_same_type_iff_same_literals(self):
        x = companion_structure(4, (1,), (3, 0, 2))
        points = list(itertools.product(range(4), repeat=2))
        xs = companion_as_structure(x)
        order = xs.relation("R")

        def satisfied(t):
            return (
                t[0] == t[1],
                (t[0], t[1]) in order,
                (t[1], t[0]) in order,
                (t[0],) in xs.relation("U0"),
                (t[1],) in xs.relation("U0"),
            )

        for p, q in itertools.combinations(points, 2):
            assert (literal_type(x, p) == literal_type(x, q)) == (
                satisfied(p) == satisfied(q)
            )

    def test_invalid_mark_order_rejected(self):
        with pytest.raises(DomainError):
            LiteralType((0, 1), (1, 0), 2)

    def test_unmarked_before_marked_rejected(self):
        with pytest.raises(DomainError):
            LiteralType((0, 1), (None, 0), 1)

    def test_computed_types_are_interned(self):
        x = companion_structure(4, (2, 0), (1, 3))
        t = literal_type(x, (1, 2, 1))
        assert literal_type(x, [1, 2, 1]) is t
        assert literal_type(x, (3, 2, 3)) is t
        assert t == LiteralType((1, 0, 1), (0, None), 2)
        assert literal_type(x, (1, 3)) is not literal_type(x, (3, 1))

    def test_rendering_is_deterministic(self):
        # Frozen literal order: equalities, then order atoms, then unary
        # atoms, each lexicographic, left-folded.
        x = companion_structure(3, (0,), (1, 2))
        t = literal_type(x, (0, 2))
        text = format_formula(render_literal_type(t, ("v0", "v1")))
        assert text == (
            "(and (and (and (and (not (= v0 v1)) (rel R v0 v1)) "
            "(not (rel R v1 v0))) (rel U0 v0)) (not (rel U0 v1)))"
        )

    def test_out_of_range_entry_rejected(self):
        x = companion_structure(3, (0,), (1, 2))
        for point, entry in (((0, 3), 3), ([-1, 2], -1)):
            with pytest.raises(DomainError) as info:
                literal_type(x, point)
            assert str(info.value) == f"tuple entry {entry} leaves the domain of size 3"

    def test_invalid_companion_refused(self):
        # Marks out of order, or no initial segment: positions do not tell
        # them.  Extraction and application refuse them too.
        y = structure(3, {"E": [(0, 1)]}, [("E", 2)])
        defs = make_definition_set([("E", 2, {})])
        for x in (Companion(3, (0, 1, 2), (1, 0)), Companion(3, (0, 1, 2), (0, 2))):
            for call in (
                lambda: literal_type(x, (2,)),
                lambda: literal_type(x, (1, 2)),
                lambda: extract_definitions(x, y),
                lambda: apply_definitions(x, defs, y.sig),
            ):
                with pytest.raises(DomainError) as info:
                    call()
                assert str(info.value) == "companion violates the ordering axioms"

    def test_companion_check_agrees_with_the_axioms(self):
        # Every companion on up to 5 points, each order with each sequence
        # of distinct marks, the violators above among them.
        for m in range(6):
            for order in itertools.permutations(range(m)):
                for k in range(m + 1):
                    for marks in itertools.permutations(range(m), k):
                        x = Companion(m, order, marks)
                        try:
                            logic._require_valid_companion(x)
                            valid = True
                        except DomainError:
                            valid = False
                        assert valid == all(validate_companion_axioms(x))


class TestMemos:
    """The literal-type memo, the rendered-type cache and the companion
    structure cache change no output, so these tests count their work."""

    @staticmethod
    def _all_types(x, arity):
        return {literal_type(x, p) for p in itertools.product(range(x.size), repeat=arity)}

    def test_memoised_render_equals_a_fresh_one(self):
        x = companion_structure(3, (1,), (2, 0))
        for arity in (1, 2, 3):
            names = [f"w{i}" for i in range(arity)]
            for t in sorted(self._all_types(x, arity), key=LiteralType.sort_key):
                k = range(arity)
                lits = [Eq(names[i], names[j]) if t.block_of[i] == t.block_of[j]
                        else Not(Eq(names[i], names[j])) for i, j in itertools.combinations(k, 2)]
                lits += [Rel("R", (names[i], names[j])) if t.block_of[i] < t.block_of[j]
                         else Not(Rel("R", (names[i], names[j]))) for i, j in itertools.permutations(k, 2)]
                lits += [Rel("U0", (names[i],)) if t.marks[t.block_of[i]] == 0
                         else Not(Rel("U0", (names[i],))) for i in k]
                fresh = and_all(lits)
                assert render_literal_type(t, names) == fresh
                assert render_literal_type(t, tuple(names)) is render_literal_type(t, names)

    def test_wrong_length_raises_on_every_call(self):
        t = literal_type(companion_structure(3, (), (0, 1, 2)), (0, 1))
        size = logic._rendered_type.cache_info().currsize
        for _ in range(3):
            with pytest.raises(DomainError) as info:
                render_literal_type(t, ["v0", "v1", "v2"])
            assert str(info.value) == "type over 2 variables rendered with 3 names"
        assert logic._rendered_type.cache_info().currsize == size

    def test_second_definition_formula_is_all_cache_hits(self):
        x = companion_structure(3, (0,), (2, 1))
        types = self._all_types(x, 2)
        defs = make_definition_set([("E", 2, types)])
        logic._rendered_type.cache_clear()
        first = definition_formula(defs, "E", ["v0", "v1"])
        assert logic._rendered_type.cache_info()[:2] == (0, len(types))
        assert definition_formula(defs, "E", ("v0", "v1")) == first
        assert logic._rendered_type.cache_info()[:2] == (len(types), len(types))

    def test_one_type_per_constant_count_and_position_word(self):
        # Every companion of 1..4 points, through both calls and arities 1
        # and 2: each type is read once per (constant count, position word),
        # shared by every companion size, so 5 counts times 4 + 16 words.
        sig = Signature((("E", 2), ("U", 1)))
        logic._standard_type.cache_clear()
        for m in range(1, 5):
            y = structure(m, {"E": itertools.product(range(m), repeat=2)}, sig)
            for x in every_companion(m):
                assert apply_definitions(x, extract_definitions(x, y), sig) == y
        assert logic._standard_type.cache_info().misses == 5 * (4 + 16) == 100


class TestExtraction:
    def test_chain_definition_is_single_increasing_type(self):
        chain3 = corpus.chain_structure(3)
        x = companion_structure(3, (), (0, 1, 2))
        defs = extract_definitions(x, chain3)
        types = defs.types_for("lt")
        assert len(types) == 1
        assert types[0].block_of == (0, 1)

    def test_marked_singleton_definition(self):
        y = corpus.unary_structure(3, [0])
        x = companion_structure(3, (0,), (1, 2))
        defs = extract_definitions(x, y)
        types = defs.types_for("U")
        assert len(types) == 1
        assert types[0].marks == (0,)

    def test_four_cycle_purity_failure(self, c4):
        x = companion_structure(4, (), (0, 1, 2, 3))
        with pytest.raises(NotSimplyDefinableError) as info:
            extract_definitions(x, c4)
        assert info.value.inside == (0, 1)
        assert info.value.outside == (0, 2)
        assert info.value.payload()["witnesses"] == [[0, 1], [0, 2]]

    def test_domain_mismatch_rejected(self, c4):
        with pytest.raises(DomainError):
            extract_definitions(companion_structure(3, (), (0, 1, 2)), c4)


class TestApplyDefinitions:
    def test_round_trip(self):
        y = corpus.unary_structure(4, [1])
        x = companion_structure(4, (1,), (0, 2, 3))
        defs = extract_definitions(x, y)
        assert apply_definitions(x, defs, y.sig) == y

    def test_empty_definition_gives_empty_relation(self):
        x = companion_structure(3, (), (0, 1, 2))
        defs = make_definition_set([("E", 2, [])])
        y = apply_definitions(x, defs, Signature((("E", 2),)))
        assert y.relation("E") == frozenset()

    def test_all_types_give_full_relation(self):
        x = companion_structure(3, (), (0, 1, 2))
        all_types = {literal_type(x, p) for p in itertools.product(range(3), repeat=2)}
        defs = make_definition_set([("E", 2, all_types)])
        y = apply_definitions(x, defs, Signature((("E", 2),)))
        assert len(y.relation("E")) == 9

    def test_missing_symbol_rejected(self):
        x = companion_structure(3, (), (0, 1, 2))
        defs = make_definition_set([("E", 2, [])])
        with pytest.raises(DomainError):
            apply_definitions(x, defs, Signature((("E", 2), ("U", 1))))

    def test_constant_count_mismatch_rejected(self):
        x0 = companion_structure(3, (), (0, 1, 2))
        x1 = companion_structure(3, (0,), (1, 2))
        defs = extract_definitions(x1, corpus.unary_structure(3, [0]))
        with pytest.raises(DomainError):
            apply_definitions(x0, defs, Signature((("U", 1),)))

    def test_membership_formula_agreement(self):
        chain3 = corpus.chain_structure(3)
        x = companion_structure(3, (), (0, 1, 2))
        defs = extract_definitions(x, chain3)
        assert verify_definitions(x, chain3, defs)


def every_companion(m):
    for order in itertools.permutations(range(m)):
        for k in range(m + 1):
            yield companion_structure(m, order[:k], order[k:])


def scanned_definitions(x, y):
    """extract_definitions as a lex-ordered scan of every point, typed one by
    one with literal_type: each type keeps its first point inside and outside
    the relation, and the first impure type met inside is refused."""
    entries = []
    for (name, arity), tuples in zip(y.sig.symbols, y.relations):
        first_in, first_out = {}, {}
        for point in itertools.product(range(y.size), repeat=arity):
            side = first_in if point in tuples else first_out
            side.setdefault(literal_type(x, point), point)
        for t in first_in:
            if t in first_out:
                raise NotSimplyDefinableError(name, t, first_in[t], first_out[t])
        entries.append((name, arity, first_in.keys()))
    return make_definition_set(entries)


def scanned_structure(x, defs, sig):
    """apply_definitions as a scan of every point, typed with literal_type."""
    rels = {
        name: [p for p in itertools.product(range(x.size), repeat=arity)
               if literal_type(x, p) in defs.types_for(name)]
        for name, arity in sig.symbols
    }
    return structure(x.size, rels, sig)


def outcome(call, *args):
    try:
        return call(*args)
    except NotSimplyDefinableError as exc:
        return exc.payload(), exc.literal_type


class TestTypeClasses:
    """extract_definitions and apply_definitions read each point's type off
    the type table of the companion's shape; a point-by-point scan with
    literal_type is the reference."""

    SIG = Signature((("E", 2), ("U", 1)))

    def cases(self):
        rng = random.Random(27)
        structures = [
            corpus.structure_from_mask(m, mask)
            for m in range(4)
            for mask in corpus.binary_masks_up_to_iso(m)
        ]
        structures += [
            corpus.structure_from_mask(4, mask)
            for mask in rng.sample(corpus.binary_masks_up_to_iso(4), 12)
        ]
        for m in (2, 3, 4):
            for _ in range(6):
                rels = {name: [p for p in itertools.product(range(m), repeat=arity) if rng.random() < 0.4]
                        for name, arity in self.SIG.symbols}
                structures.append(structure(m, rels, self.SIG))
        for y in structures:
            for x in every_companion(y.size):
                yield rng, x, y

    def test_agrees_with_a_point_by_point_scan(self):
        refused = defined = 0
        for rng, x, y in self.cases():
            expected = outcome(scanned_definitions, x, y)
            assert outcome(extract_definitions, x, y) == expected, (x, y.relations)
            if isinstance(expected, logic.QfDefinitionSet):
                defined += 1
                defs = expected
            else:
                refused += 1
                defs = random_definition_set(rng, x, y.sig)
            # Types no point of this size realizes, drawn from a larger companion.
            k = len(x.constants)
            wide = companion_structure(k + 2, range(k), (k, k + 1))
            pool = [{literal_type(wide, p) for p in itertools.product(range(k + 2), repeat=arity)}
                    for _, arity in y.sig.symbols]
            unrealized = make_definition_set(
                (name, arity, [t for t in sorted(types, key=LiteralType.sort_key) if rng.random() < 0.5])
                for (name, arity), types in zip(y.sig.symbols, pool)
            )
            for d in (defs, unrealized):
                assert apply_definitions(x, d, y.sig) == scanned_structure(x, d, y.sig)
        assert refused > 1000 and defined > 1000

    def test_the_least_inside_point_names_the_impure_type(self):
        # Over the order 2 < 1 < 0, (2, 1) and (0, 1) are both inside E and
        # of impure types; the second, whose class comes later in the
        # companion's order, holds the least inside point.
        x = companion_structure(3, (), (2, 1, 0))
        y = structure(3, {"E": [(0, 1), (2, 1)]}, [("E", 2)])
        with pytest.raises(NotSimplyDefinableError) as info:
            extract_definitions(x, y)
        assert (info.value.inside, info.value.outside) == ((0, 1), (0, 2))
        assert info.value.literal_type == literal_type(x, (0, 1)) != literal_type(x, (2, 1))
        assert outcome(extract_definitions, x, y) == outcome(scanned_definitions, x, y)

    def test_the_impure_type_need_not_come_first(self):
        # The diagonal's class comes first and is pure; the class of (0, 1),
        # inside E, is not.
        x = companion_structure(3, (), (0, 1, 2))
        y = structure(3, {"E": [(0, 0), (1, 1), (2, 2), (0, 1)]}, [("E", 2)])
        with pytest.raises(NotSimplyDefinableError) as info:
            extract_definitions(x, y)
        assert (info.value.inside, info.value.outside) == ((0, 1), (0, 2))

    def test_built_relations_share_the_word_tuples(self):
        rng = random.Random(5)
        built = 0
        for m, k in ((3, 1), (4, 0), (4, 2), (6, 2)) * 3:
            x = random_companion(rng, m, k)
            y = apply_definitions(x, random_definition_set(rng, x, self.SIG), self.SIG)
            for (_, arity), tuples in zip(self.SIG.symbols, y.relations):
                shared = {id(w) for w in words(m, arity)}
                assert all(id(t) in shared for t in tuples)
                built += len(tuples)
        assert built > 100


def per_tuple_verdict(x, y, defs):
    """verify_definitions as one evaluation of the whole DNF per tuple: the
    reference the memoised point sets must agree with."""
    x_struct = companion_as_structure(x)
    variables = [f"v{i}" for i in range(max(y.sig.max_arity(), 1))]
    for (name, arity), tuples in zip(y.sig.symbols, y.relations):
        phi = definition_formula(defs, name, variables[:arity])
        for point in itertools.product(range(y.size), repeat=arity):
            if eval_formula(phi, x_struct, dict(zip(variables, point))) != (point in tuples):
                return False
    return True


class TestVerifyDefinitions:
    SIG = Signature((("E", 2), ("U", 1)))

    @pytest.fixture
    def case(self):
        """A companion with one constant, a structure defined over it, and
        its extracted definitions: every symbol has at least one type."""
        x = companion_structure(4, (2,), (0, 3, 1))
        order = x.order
        at_most = [(a, b) for i, a in enumerate(order) for b in order[i:]]
        y = structure(4, {"E": at_most, "U": [(2,)]}, self.SIG)
        defs = extract_definitions(x, y)
        assert all(types for _, _, types in defs.entries)
        return x, y, defs

    def test_definitions_of_another_structure_fail(self, case):
        x, y, defs = case
        greater = [(b, a) for a, b in y.relation("E") if a != b]
        other = structure(4, {"E": greater, "U": [(0,), (1,), (3,)]}, self.SIG)
        assert verify_definitions(x, y, defs)
        assert not verify_definitions(x, other, defs)
        assert not verify_definitions(x, y, extract_definitions(x, other))

    def test_a_dropped_type_fails(self, case):
        x, y, defs = case
        for name, arity, types in defs.entries:
            for dropped in types:
                kept = [t for t in types if t != dropped]
                entries = [(n, a, kept if n == name else ts) for n, a, ts in defs.entries]
                assert not verify_definitions(x, y, make_definition_set(entries))

    def test_a_foreign_type_fails(self, case):
        x, y, defs = case
        for name, arity, types in defs.entries:
            realized = {literal_type(x, p) for p in itertools.product(range(4), repeat=arity)}
            for foreign in realized - set(types):
                entries = [(n, a, ts + (foreign,) if n == name else ts) for n, a, ts in defs.entries]
                assert not verify_definitions(x, y, make_definition_set(entries))

    def test_agrees_with_the_per_tuple_formula(self):
        from chainlab.chainability import witness_companion
        from chainlab.verify import all_witnesses, random_structures

        rng = random.Random(26)
        cases = []
        for m in range(4):
            for mask in corpus.binary_masks_up_to_iso(m):
                y = corpus.structure_from_mask(m, mask)
                cases += [(witness_companion(w), y) for w in all_witnesses(m)]
        masks = corpus.binary_masks_up_to_iso(4)
        witnesses = all_witnesses(4)
        cases += [
            (witness_companion(rng.choice(witnesses)), corpus.structure_from_mask(4, rng.choice(masks)))
            for _ in range(300)
        ]
        for y in random_structures(rng, 60, sizes=(1, 2, 3, 4, 5), arity=(1, 3)):
            cases.append((random_companion(rng, y.size, rng.randint(0, min(y.size, 2))), y))
        outcomes = set()
        for x, y in cases:
            candidates = [random_definition_set(rng, x, y.sig)]
            if is_chainable_with(y, ChainWitness(frozenset(x.constants), x.rest)):
                candidates.append(extract_definitions(x, y))
            for defs in candidates:
                verdict = verify_definitions(x, y, defs)
                assert verdict == per_tuple_verdict(x, y, defs), (x, y.relations, defs)
                assert verify_definitions(x, apply_definitions(x, defs, y.sig), defs)
                outcomes.add(verdict)
        assert outcomes == {True, False}

    def test_a_repeat_call_evaluates_no_formula(self, case, monkeypatch):
        x, y, defs = case
        calls = [0]
        real = logic.eval_formula

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(logic, "eval_formula", counted)
        logic._satisfying_points.cache_clear()
        assert verify_definitions(x, y, defs)
        # Each type is evaluated once on every point of its arity.
        assert calls[0] == sum(len(types) * 4**arity for _, arity, types in defs.entries)
        calls[0] = 0
        assert verify_definitions(x, y, defs)
        assert calls[0] == 0
        types = sum(len(types) for _, _, types in defs.entries)
        assert logic._satisfying_points.cache_info()[:2] == (types, types)

    def test_points_past_the_shared_words_cap_are_not_stored(self):
        # 9**3 points exceed SHARED_WORDS_CAP (512): their types stay within
        # the memo's bound, and their point sets are evaluated, never memoised.
        rng = random.Random(9)
        x = random_companion(rng, 9, 1)
        sig = Signature((("T", 3),))
        defs = random_definition_set(rng, x, sig)
        y = apply_definitions(x, defs, sig)
        assert apply_definitions(x, extract_definitions(x, y), sig) == y
        assert logic._standard_type.cache_info().currsize <= CACHE_SIZE
        logic._satisfying_points.cache_clear()
        assert verify_definitions(x, y, defs)
        assert per_tuple_verdict(x, y, defs)
        assert logic._satisfying_points.cache_info().currsize == 0
        dropped = make_definition_set([("T", 3, defs.types_for("T")[1:])])
        assert not verify_definitions(x, y, dropped)

    def test_a_missing_symbol_is_refused(self, case):
        x, y, defs = case
        partial = make_definition_set([entry for entry in defs.entries if entry[0] != "U"])
        for call in (lambda: verify_definitions(x, y, partial),
                     lambda: definition_formula(partial, "U", ["v0"]),
                     lambda: apply_definitions(x, partial, y.sig)):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == "no definition for symbol 'U'"

    def test_an_arity_mismatch_is_refused(self, case):
        x, y, _ = case
        defs = make_definition_set([("E", 1, []), ("U", 1, [])])
        for call in (lambda: verify_definitions(x, y, defs),
                     lambda: definition_formula(defs, "E", ["v0", "v1"]),
                     lambda: apply_definitions(x, defs, y.sig)):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == "'E' has arity 1, applied to 2 variables"

    def test_a_constant_count_mismatch_is_refused(self):
        # Built for no constants, the definitions once verified over one as
        # True; built for one, they failed over none on the unknown symbol U0.
        y = corpus.unary_structure(3, [0, 1, 2])
        x0 = companion_structure(3, (), (0, 1, 2))
        x1 = companion_structure(3, (0,), (1, 2))
        for built, used in ((x0, x1), (x1, x0)):
            defs = extract_definitions(built, y)
            with pytest.raises(DomainError) as applied:
                apply_definitions(used, defs, y.sig)
            with pytest.raises(DomainError) as verified:
                verify_definitions(used, y, defs)
            assert str(verified.value) == str(applied.value) == (
                f"definition of 'U' was built for {len(built.constants)} constants, "
                f"companion has {len(used.constants)}"
            )

    def test_a_companion_of_another_size_is_refused(self, case):
        _, y, defs = case
        x = companion_structure(3, (2,), (0, 1))
        with pytest.raises(DomainError) as info:
            verify_definitions(x, y, defs)
        assert str(info.value) == "companion and structure must share the domain"


class TestRoundTripProperty:
    def test_chainable_witnesses_extract_and_rebuild(self):
        from chainlab.verify import all_witnesses, witness_companion

        for y in corpus.all_binary_structures(3):
            for w in all_witnesses(y.size):
                if not is_chainable_with(y, w):
                    continue
                x = witness_companion(w)
                defs = extract_definitions(x, y)
                assert apply_definitions(x, defs, y.sig) == y

    def test_generated_structures_are_chainable(self):
        rng = random.Random(3)
        sig = Signature((("E", 2),))
        for _ in range(100):
            m = rng.randint(1, 5)
            k = rng.randint(0, min(m, 2))
            x = random_companion(rng, m, k)
            defs = random_definition_set(rng, x, sig)
            y = apply_definitions(x, defs, sig)
            assert is_chainable_with(y, ChainWitness(frozenset(x.constants), x.rest))


class TestAgeSentence:
    def test_own_age_family_holds(self, c5):
        family = age_representatives(c5, 2)
        sentence = age_sentence(family, ["E"])
        assert eval_formula(sentence, c5, {})
        assert check_age_sentence_agreement(family, ["E"], c5)

    def test_missing_realized_type_fails(self, c5):
        family = [k for k in age_representatives(c5, 2) if k.relation("E")]
        sentence = age_sentence(family, ["E"])
        assert not eval_formula(sentence, c5, {})
        assert check_age_sentence_agreement(family, ["E"], c5)

    def test_edge_family_on_empty_structure_fails(self):
        edge_pair = corpus.path_structure(2)
        empty = corpus.empty_relation_structure(4)
        sentence = age_sentence([edge_pair], ["E"])
        assert not eval_formula(sentence, empty, {})
        assert check_age_sentence_agreement([edge_pair], ["E"], empty)

    def test_agreement_validates_the_family_once(self, c5, monkeypatch):
        # Two forms validate the two members, two more are their kept reducts.
        family = age_representatives(c5, 3)
        assert len(family) == 2
        calls = []
        real = morphism.canonical_form
        monkeypatch.setattr(morphism, "canonical_form", lambda y: calls.append(y) or real(y))
        assert check_age_sentence_agreement(family, ["E"], c5)
        assert len(calls) == 4

    def test_both_pair_types_on_cycle(self, c5):
        family = [corpus.path_structure(2), corpus.empty_relation_structure(2)]
        assert eval_formula(age_sentence(family, ["E"]), c5, {})

    def test_size_mismatch_rejected(self, c5):
        with pytest.raises(DomainError):
            age_sentence([corpus.path_structure(2), corpus.path_structure(3)], ["E"])

    def test_isomorphic_members_rejected(self):
        a = corpus.path_structure(2)
        b = structure(2, {"E": [(1, 0), (0, 1)]}, [("E", 2)])
        with pytest.raises(DomainError):
            age_sentence([a, b], ["E"])

    def test_empty_family_rejected(self):
        with pytest.raises(DomainError):
            age_sentence([], ["E"])

    def test_empty_subsignature(self, c5):
        family = age_representatives(c5, 2)
        assert check_age_sentence_agreement(family, [], c5)

    def test_agreement_over_small_corpus(self):
        for y in corpus.all_binary_structures(3):
            for n in (1, 2, 3):
                if n > y.size:
                    continue
                family = age_representatives(y, n)
                for keep in ([], ["E"]):
                    assert check_age_sentence_agreement(family, keep, y)


def clear_sentence_memos():
    for memo in (logic._match_formula, logic._literal, morphism._listed_forms):
        memo.cache_clear()


class TestSentenceMemos:
    def test_memoised_sentence_matches_a_cold_build(self):
        # Each sentence is built with warm memos, then again with them
        # cleared: one tree, and for the families of classes on <= 3 points
        # one text (equal trees print alike; printing the rest would double
        # the test's time).  Both kept signatures of one family come in
        # turn, so a matcher keyed without them is caught.
        families = {}  # each distinct family, with the least class size giving it
        for m in range(1, 5):
            for y in corpus.all_binary_structures(m):
                for n in range(1, min(3, m) + 1):
                    families.setdefault(age_representatives(y, n), m)
        for family, m in families.items():
            for keep in ([], ["E"]):
                warm = logic._age_sentence(family, keep)
                clear_sentence_memos()
                cold = logic._age_sentence(family, keep)
                assert warm == cold, (family, keep)
                assert m == 4 or format_formula(warm) == format_formula(cold)

    def test_one_matcher_per_member_and_kept_symbols(self):
        families = [
            age_representatives(y, n)
            for y in (*corpus.all_binary_structures(3), corpus.cycle_structure(5))
            for n in (1, 2, 3)
        ]
        clear_sentence_memos()
        for family in families * 2:
            for keep in ([], ["E"]):
                logic._age_sentence(family, keep)
        pairs = {(k, keep) for family in families for k in family for keep in ((), ("E",))}
        info = logic._match_formula.cache_info()
        assert (info.misses, info.currsize) == (len(pairs), len(pairs))

    def test_large_matchers_are_not_stored(self):
        # 4! conjunctions of 6 distinctness and 16 edge literals pass
        # SHARED_WORDS_CAP; without the edge literals they do not.
        member = corpus.path_structure(4)
        clear_sentence_memos()
        assert age_sentence([member], ["E"]) == age_sentence([member], ["E"])
        assert logic._match_formula.cache_info().currsize == 0
        age_sentence([member], [])
        assert logic._match_formula.cache_info().currsize == 1

    def test_literals_are_shared_nodes(self):
        # Two builds of one matcher hold the same 6 x 12 literal nodes.
        member, variables = corpus.path_structure(3), ("v0", "v1", "v2")
        clear_sentence_memos()
        first = logic._match_formula(member, ("E",), variables)
        logic._match_formula.cache_clear()
        second = logic._match_formula(member, ("E",), variables)
        assert first == second and first is not second
        pairs = [(a, b) for c, d in zip(first.parts, second.parts) for a, b in zip(c.parts, d.parts)]
        assert len(pairs) == 6 * 12 and all(a is b for a, b in pairs)


class TestQuotientTranslate:
    SIG = Signature((("E", 2), ("Edup", 2)))

    def test_atom_replacement_preserves_truth(self):
        edges = {(0, 1), (1, 2)}
        z = structure(3, {"E": edges, "Edup": edges}, self.SIG)
        f = Exists("v", Rel("Edup", ("v", "v")))
        translated = quotient_translate(f, {"Edup": "E"}, self.SIG)
        assert translated == Exists("v", Rel("E", ("v", "v")))
        assert eval_formula(f, z, {}) == eval_formula(
            translated, reduct(z, ["E"]), {}
        )

    def test_identity_map_is_noop(self):
        f = Exists("v", Rel("E", ("v", "v")))
        assert quotient_translate(f, {}, self.SIG) == f

    def test_no_atoms_is_noop(self):
        f = Exists("v", Eq("v", "v"))
        assert quotient_translate(f, {"Edup": "E"}, self.SIG) == f

    def test_arity_mismatch_rejected(self):
        sig = Signature((("E", 2), ("U", 1)))
        with pytest.raises(DomainError):
            quotient_translate(Eq("a", "a"), {"U": "E"}, sig)

    def test_randomized_truth_agreement(self):
        rng = random.Random(11)
        sig = Signature((("E0", 2), ("E1", 2), ("U0", 1), ("U1", 1)))
        mapping = {"E1": "E0", "U1": "U0"}
        for _ in range(150):
            m = rng.randint(1, 4)
            edges = {t for t in itertools.product(range(m), repeat=2) if rng.random() < 0.4}
            marks = {(a,) for a in range(m) if rng.random() < 0.4}
            z = structure(m, {"E0": edges, "E1": edges, "U0": marks, "U1": marks}, sig)
            f = random_formula(rng, sig, ("x0", "x1"), depth=3, quantifiers=2)
            assignment = {v: rng.randrange(m) for v in ("x0", "x1")}
            assert eval_formula(f, z, assignment) == eval_formula(
                quotient_translate(f, mapping, sig), reduct(z, ["E0", "U0"]), assignment
            )


class TestStarTranslate:
    def test_sentence_agreement_after_extraction(self):
        chain3 = corpus.chain_structure(3)
        x = companion_structure(3, (), (0, 1, 2))
        defs = extract_definitions(x, chain3)
        f = Exists("u", Exists("v", Rel("lt", ("u", "v"))))
        translated = star_translate(f, defs)
        assert eval_formula(f, chain3, {}) == eval_formula(
            translated, companion_as_structure(x), {}
        )

    def test_equality_unchanged(self):
        defs = make_definition_set([("E", 2, [])])
        assert star_translate(Eq("v0", "v1"), defs) == Eq("v0", "v1")

    def test_negation_is_homomorphic(self):
        x = companion_structure(3, (), (0, 1, 2))
        defs = extract_definitions(x, corpus.chain_structure(3))
        f = Not(Rel("lt", ("v0", "v0")))
        translated = star_translate(f, defs)
        assert isinstance(translated, Not)
        assert translated.body == definition_formula(defs, "lt", ("v0", "v0"))

    def test_missing_definition_rejected(self):
        defs = make_definition_set([("E", 2, [])])
        with pytest.raises(DomainError, match="no definition for symbol 'other'"):
            star_translate(Rel("other", ("v0",)), defs)

    @pytest.mark.parametrize("nonempty", [False, True])
    def test_wrong_arity_atom_rejected(self, nonempty):
        x = companion_structure(3, (), (0, 1, 2))
        defs = make_definition_set([("E", 2, [literal_type(x, (0, 1))] if nonempty else [])])
        with pytest.raises(DomainError, match="'E'"):
            star_translate(Rel("E", ("u",)), defs)

    def test_repeated_variables_in_atom(self):
        # E(v, v) can only hold when the defining types merge both slots.
        x = companion_structure(3, (), (0, 1, 2))
        diagonal = literal_type(x, (1, 1))
        defs = make_definition_set([("E", 2, [diagonal])])
        y = apply_definitions(x, defs, Signature((("E", 2),)))
        f = Exists("v", Rel("E", ("v", "v")))
        assert eval_formula(f, y, {})
        assert eval_formula(star_translate(f, defs), companion_as_structure(x), {})


class TestCompanionSentences:
    def test_every_companion_satisfies_theory(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rng.randint(0, 5)
            k = rng.randint(0, m)
            x = random_companion(rng, m, k)
            xs = companion_as_structure(x)
            for sentence in theory_star_sentences(k):
                assert eval_formula(sentence, xs, {})

    def test_doubled_mark_fails_singleton_sentence(self):
        xs = structure(
            3,
            {"R": [(0, 1), (0, 2), (1, 2)], "U0": [(0,), (1,)]},
            [("R", 2), ("U0", 1)],
        )
        sentences = theory_star_sentences(1)
        assert eval_formula(sentences[0], xs, {})  # order axioms hold
        assert not eval_formula(sentences[1], xs, {})

    def test_stray_constant_fails_segment_sentence(self):
        # Mark sits at the top of the order instead of the bottom.
        xs = structure(
            3,
            {"R": [(0, 1), (0, 2), (1, 2)], "U0": [(2,)]},
            [("R", 2), ("U0", 1)],
        )
        sentences = theory_star_sentences(1)
        assert eval_formula(sentences[1], xs, {})
        assert not eval_formula(sentences[2], xs, {})

    def test_sentence_count_by_constant_count(self):
        assert len(theory_star_sentences(0)) == 1
        assert len(theory_star_sentences(1)) == 3
        assert len(theory_star_sentences(2)) == 4
