import random

import pytest

from chainlab.chainability import age_representatives
from chainlab.core import Signature, companion_structure, structure
from chainlab.errors import FormulaError, ParseError
from chainlab.formulas import (
    And,
    Eq,
    Exists,
    Forall,
    Not,
    Or,
    Rel,
    and_all,
    eval_formula,
    format_formula,
    map_atoms,
    or_all,
    parse_formula,
)
from chainlab.logic import age_sentence, star_translate
from chainlab.verify import random_definition_set, random_formula


class TestEval:
    def test_existential_witness(self):
        y = structure(3, {"R": [(1, 1)]}, [("R", 2)])
        f = Exists("v", Rel("R", ("v", "v")))
        assert eval_formula(f, y, {})

    def test_symmetry_sentence_on_cycle(self, c5):
        f = Forall(
            "u", Forall("v", Or(Not(Rel("E", ("u", "v"))), Rel("E", ("v", "u"))))
        )
        assert eval_formula(f, c5, {})

    def test_equality_under_assignment(self, c5):
        assert not eval_formula(Eq("v0", "v1"), c5, {"v0": 2, "v1": 3})
        assert eval_formula(Eq("v0", "v1"), c5, {"v0": 2, "v1": 2})

    def test_unbound_variable_rejected(self, c5):
        with pytest.raises(FormulaError, match="unbound variable 'v1'"):
            eval_formula(Eq("v0", "v1"), c5, {"v0": 2})
        # Raised inside a quantifier, the error leaves the caller's dict as it was.
        assignment = {"v": 3}
        with pytest.raises(FormulaError, match="unbound variable 'w'"):
            eval_formula(Exists("v", Rel("E", ("v", "w"))), c5, assignment)
        assert assignment == {"v": 3}

    def test_unknown_symbol_rejected(self, c5):
        with pytest.raises(FormulaError, match="unknown relation symbol 'missing'"):
            eval_formula(Exists("v", Rel("missing", ("v",))), c5, {})
        for f in ("x", Not("x")):
            with pytest.raises(FormulaError, match="not a formula node"):
                eval_formula(f, c5, {})

    def test_arity_mismatch_rejected(self, c5):
        with pytest.raises(FormulaError, match="atom 'E' has 1 arguments, arity is 2"):
            eval_formula(Exists("v", Rel("E", ("v",))), c5, {})

    def test_quantifier_shadowing(self, c5):
        # Inner binding hides the outer one; outer value must be restored.
        f = Exists("v", And(Eq("v", "v"), Exists("v", Rel("E", ("v", "v")))))
        assert not eval_formula(f, c5, {})
        assert eval_formula(Eq("v", "u"), c5, {"v": 1, "u": 1})
        # The quantifier stops at v = 0, then the outer v = 1 is back; with no
        # outer v, the variable is unbound again after the quantifier.
        f = And(Exists("v", Eq("v", "v")), Eq("v", "u"))
        assert eval_formula(f, c5, {"v": 1, "u": 1})
        with pytest.raises(FormulaError, match="unbound variable 'v'"):
            eval_formula(f, c5, {"u": 1})

    def test_empty_domain_quantifiers(self):
        y = structure(0, {}, [("E", 2)])
        assert eval_formula(Forall("v", Rel("E", ("v", "v"))), y, {})
        assert not eval_formula(Exists("v", Eq("v", "v")), y, {})


class TestTextFormat:
    CANONICAL = "(and (exists v0 (rel E v0 v1)) (not (= v0 v1)))"

    def test_round_trip_is_bit_exact(self):
        assert format_formula(parse_formula(self.CANONICAL)) == self.CANONICAL

    def test_whitespace_normalization(self):
        messy = "(and  (exists v0\n  (rel E v0 v1))\t(not (= v0 v1)))"
        assert format_formula(parse_formula(messy)) == self.CANONICAL

    def test_parse_rejects_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_formula("(= v0 v1) junk")

    def test_parse_rejects_unknown_keyword(self):
        with pytest.raises(ParseError):
            parse_formula("(xor v0 v1)")

    def test_parse_rejects_unclosed(self):
        with pytest.raises(ParseError):
            parse_formula("(not (= v0 v1)")

    def test_parse_rejects_empty_atom_list(self):
        with pytest.raises(ParseError):
            parse_formula("(rel E)")

    def test_parse_rejects_deep_nesting(self):
        depth = 10_000
        text = "(not " * (depth - 1) + "(= v0 v1)" + ")" * (depth - 1)
        with pytest.raises(ParseError):
            parse_formula(text)

    def test_long_chain_round_trip(self):
        # A printed chain opens with one head per part but one: past
        # FORMULA_DEPTH_CAP parts it still parses back, as one node.
        atoms = [Rel("E", ("u", f"x{i}")) for i in range(600)]
        for f in (and_all(atoms), or_all([Not(and_all(atoms[:300])), *atoms[300:]])):
            text = format_formula(f)
            assert parse_formula(text) == f
            assert format_formula(parse_formula(text)) == text

    def test_random_round_trip(self):
        rng = random.Random(17)
        sig = Signature((("E", 2), ("U", 1)))
        for _ in range(400):
            f = random_formula(rng, sig, ("v0", "v1", "v2"), depth=4, quantifiers=2)
            text = format_formula(f)
            assert parse_formula(text) == f
            assert format_formula(parse_formula(text)) == text


class TestHelpers:
    def test_and_or_builders(self):
        parts = [Eq("a", "a"), Eq("b", "b"), Eq("c", "c")]
        assert format_formula(and_all(parts)) == "(and (and (= a a) (= b b)) (= c c))"
        assert format_formula(or_all(parts[:2])) == "(or (= a a) (= b b))"
        with pytest.raises(FormulaError):
            and_all([])

    def test_chain_identity(self, c5):
        a, b, c = Eq("a", "a"), Eq("b", "b"), Eq("c", "c")
        assert And(And(a, b), c) == and_all([a, b, c])
        assert parse_formula("(and (and (= a a) (= b b)) (= c c))") == and_all([a, b, c])
        right = And(a, And(b, c))
        assert len(right.parts) == 2
        assert format_formula(right) == "(and (= a a) (and (= b b) (= c c)))"
        with pytest.raises(FormulaError):
            And(a)
        with pytest.raises(FormulaError):
            Or()
        rng = random.Random(8)
        sig = Signature((("E", 2), ("U", 1)))
        x = companion_structure(4, (1,), (3, 0, 2))
        defs = random_definition_set(rng, x, sig)
        f = random_formula(rng, sig, ("v0", "v1", "v2"), depth=4, quantifiers=2)
        for g in (star_translate(f, defs), age_sentence(age_representatives(c5, 3), ("E",))):
            text = format_formula(g)
            assert "(and (and" in text
            assert parse_formula(text) == g

    def test_map_atoms_identity(self):
        rng = random.Random(23)
        sig = Signature((("E", 2), ("U", 1)))
        for _ in range(200):
            f = random_formula(rng, sig, ("v0", "v1", "v2"), depth=4, quantifiers=2)
            assert map_atoms(f, lambda atom: atom) == f

    def test_long_chains_walk_without_recursion(self):
        # One node holds each chain, so no walk, comparison, hash or repr
        # recurses once per part.
        n = 5000
        y = structure(2, {"E": [(0, 1)]}, [("E", 2)])
        atoms = [Rel("E", ("u", f"x{i}")) for i in range(n)]
        swapped = [Rel("E", (f"x{i}", "u")) for i in range(n)]
        only_last = {"u": 0, **{f"x{i}": 0 for i in range(n - 1)}, f"x{n - 1}": 1}
        every = {"u": 0, **{f"x{i}": 1 for i in range(n)}}
        for build, keyword, on_last in ((or_all, "or", True), (and_all, "and", False)):
            f = build(atoms)
            text = f"({keyword} " * (n - 1) + "(rel E u x0)"
            text += "".join(f" (rel E u x{i}))" for i in range(1, n))
            assert format_formula(f) == text
            assert eval_formula(f, y, only_last) is on_last
            assert eval_formula(f, y, every) is True
            flipped = map_atoms(f, lambda atom: Rel(atom.symbol, atom.args[::-1]))
            assert format_formula(flipped) == format_formula(build(swapped))
            twin = build([Rel("E", ("u", f"x{i}")) for i in range(n)])
            assert twin is not f and twin == f
            assert hash(twin) == hash(f)
            assert repr(twin) == repr(f)

    def test_map_atoms_rejects_non_formula(self):
        with pytest.raises(FormulaError):
            map_atoms(Not("E"), lambda atom: atom)
