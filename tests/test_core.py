import copy
import itertools
import pickle

import pytest

from chainlab import corpus
from chainlab.chainability import ChainWitness, KernelReport, ProfileReport
from chainlab.core import (
    Companion,
    Record,
    Signature,
    Structure,
    companion_from_dict,
    companion_structure,
    induced_substructure,
    reduct,
    structure,
    structure_from_dict,
    structure_to_dict,
    validate_companion_axioms,
    words,
)
from chainlab.errors import DomainError, FormulaError, ParseError
from chainlab.formulas import And, Eq, Exists, Forall, Not, Or, Rel
from chainlab.gpw import ChainOrderFamily, GpwClassification
from chainlab.logic import LiteralType, QfDefinitionSet
from chainlab.morphism import PartialMap


class TestSignature:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DomainError):
            Signature((("E", 2), ("E", 1)))

    def test_zero_arity_rejected(self):
        with pytest.raises(DomainError):
            Signature((("E", 0),))

    def test_empty_signature_allowed(self):
        assert Signature(()).max_arity() == 0


class TestStructure:
    def test_tuple_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            structure(2, {"E": [(0, 5)]}, [("E", 2)])

    def test_wrong_arity_rejected(self):
        with pytest.raises(DomainError):
            structure(3, {"E": [(0, 1, 2)]}, [("E", 2)])

    def test_repeated_entries_allowed(self):
        y = structure(2, {"E": [(0, 0)]}, [("E", 2)])
        assert (0, 0) in y.relation("E")


class TestInducedSubstructure:
    def test_five_cycle_to_path(self, c5):
        # Hand check: edges of the 5-cycle inside {0,1,2} are 01 and 12.
        sub = induced_substructure(c5, {0, 1, 2})
        assert sub.size == 3
        assert sub.relation("E") == frozenset({(0, 1), (1, 0), (1, 2), (2, 1)})

    def test_full_domain_is_identity(self, c5):
        assert induced_substructure(c5, range(5)) == c5

    def test_chain_restriction_is_chain(self, chain5):
        sub = induced_substructure(chain5, {1, 3})
        assert sub.relation("lt") == frozenset({(0, 1)})

    def test_empty_subset_rejected(self, c5):
        with pytest.raises(DomainError):
            induced_substructure(c5, set())

    def test_out_of_range_rejected(self, c5):
        with pytest.raises(DomainError):
            induced_substructure(c5, {0, 9})

    def test_composition_coherence_exhaustive(self):
        # Restricting twice equals restricting once via the composed subset.
        for y in corpus.all_binary_structures(3) + [corpus.cycle_structure(4)]:
            for r in range(1, y.size + 1):
                for h in itertools.combinations(range(y.size), r):
                    inner = induced_substructure(y, h)
                    hs = sorted(h)
                    for r2 in range(1, inner.size + 1):
                        for g in itertools.combinations(range(inner.size), r2):
                            assert induced_substructure(inner, g) == induced_substructure(
                                y, [hs[i] for i in g]
                            )

    def test_matches_tuple_by_tuple_restriction(self):
        # Small relations are read off the shared word table, large ones
        # relabeled tuple by tuple; both must agree with the definition.
        for y in (corpus.cyclic_order_structure(8), corpus.cycle_structure(30)):
            for h in (range(0, y.size, 2), range(1, y.size), [0, 3, 4, 7]):
                hs = sorted(h)
                expected = {
                    name: {tuple(hs.index(x) for x in t) for t in y.relation(name) if set(t) <= set(hs)}
                    for name in y.sig.names
                }
                sub = induced_substructure(y, h)
                assert {name: set(sub.relation(name)) for name in y.sig.names} == expected


class TestWords:
    def test_lexicographic_words(self):
        for m, arity in ((0, 1), (1, 3), (3, 2), (5, 3), (30, 2)):
            assert tuple(words(m, arity)) == tuple(itertools.product(range(m), repeat=arity))

    def test_small_tables_are_shared_and_large_ones_are_not(self):
        assert words(6, 3) is words(6, 3)
        assert words(30, 2) is not words(30, 2)


class TestReduct:
    def test_keep_one_symbol(self):
        y = structure(3, {"E": [(0, 1)], "U": [(2,)]}, [("E", 2), ("U", 1)])
        r = reduct(y, ["E"])
        assert r.sig.names == ("E",)
        assert r.relation("E") == y.relation("E")

    def test_keep_all_is_identity(self):
        y = structure(3, {"E": [(0, 1)], "U": [(2,)]}, [("E", 2), ("U", 1)])
        assert reduct(y, ["E", "U"]) == y

    def test_keep_none_is_pure_set(self):
        y = structure(3, {"E": [(0, 1)]}, [("E", 2)])
        r = reduct(y, [])
        assert r.sig.symbols == ()
        assert r.size == 3

    def test_unknown_symbol_rejected(self, c5):
        with pytest.raises(DomainError):
            reduct(c5, ["missing"])

    def test_commutes_with_restriction(self):
        y = structure(
            4, {"E": [(0, 1), (2, 3), (1, 1)], "U": [(0,), (3,)]}, [("E", 2), ("U", 1)]
        )
        for r in range(1, 5):
            for h in itertools.combinations(range(4), r):
                for keep in ([], ["E"], ["U"], ["E", "U"]):
                    assert reduct(induced_substructure(y, h), keep) == induced_substructure(
                        reduct(y, keep), h
                    )


class TestCompanion:
    def test_basic_construction(self):
        x = companion_structure(5, (4,), (0, 1, 2, 3))
        assert x.order == (4, 0, 1, 2, 3)
        assert x.constants == (4,)

    def test_no_constants(self):
        x = companion_structure(3, (), (2, 1, 0))
        assert x.order == (2, 1, 0)
        assert x.constants == ()

    def test_two_constants(self):
        x = companion_structure(4, (1, 0), (3, 2))
        assert x.order == (1, 0, 3, 2)
        assert x.constants == (1, 0)

    def test_repeated_constant_rejected(self):
        with pytest.raises(DomainError):
            companion_structure(3, (0, 0), (1, 2))

    def test_overlap_rejected(self):
        with pytest.raises(DomainError):
            companion_structure(3, (0,), (0, 1, 2))

    def test_coverage_failure_rejected(self):
        with pytest.raises(DomainError):
            companion_structure(4, (0,), (1, 2))

    def test_constructed_companions_pass_axioms(self):
        for m in range(6):
            for k in range(m + 1):
                for f_enum in itertools.permutations(range(m), k):
                    rest = tuple(e for e in range(m) if e not in f_enum)
                    x = companion_structure(m, f_enum, rest)
                    assert validate_companion_axioms(x) == (True, True, True, True)

    def test_swapped_constants_fail_third_axiom(self):
        x = Companion(3, (0, 1, 2), (1, 0))
        checks = validate_companion_axioms(x)
        assert checks[2] is False

    def test_stray_constant_fails_fourth_axiom(self):
        x = Companion(3, (0, 1, 2), (0, 2))
        checks = validate_companion_axioms(x)
        assert checks[2] is True
        assert checks[3] is False

    def test_rest_property(self):
        x = companion_structure(5, (4,), (0, 2, 1, 3))
        assert x.rest == (0, 2, 1, 3)


class TestSerialization:
    def test_structure_round_trip(self, c5):
        assert structure_from_dict(structure_to_dict(c5)) == c5

    def test_companion_round_trip(self):
        doc = {"size": 5, "order": [4, 0, 1, 2, 3], "constants": [4]}
        x = companion_from_dict(doc)
        assert x == companion_structure(5, (4,), (0, 1, 2, 3))
        assert {"size": x.size, "order": list(x.order), "constants": list(x.constants)} == doc

    def test_malformed_structure_rejected(self):
        with pytest.raises(ParseError):
            structure_from_dict({"size": 3})
        with pytest.raises(ParseError):
            structure_from_dict(
                {"signature": [{"name": "E"}], "size": 3, "relations": {}}
            )

    def test_malformed_companion_rejected(self):
        with pytest.raises(ParseError):
            companion_from_dict({"order": [0, 1]})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("arity", 2.5),
            ("arity", True),
            ("size", 3.0),
            ("size", True),
            ("size", float("inf")),
            ("entry", 1.0),
            ("entry", False),
        ],
    )
    def test_non_integer_structure_number_refused(self, field, value):
        # int() would read 2.5 as 2 and True as 1; the file loader refuses them.
        doc = {"signature": [{"name": "E", "arity": 2}], "size": 3, "relations": {"E": [[0, 1]]}}
        if field == "arity":
            doc["signature"][0]["arity"] = value
        elif field == "size":
            doc["size"] = value
        else:
            doc["relations"]["E"] = [[value, 1]]
        with pytest.raises(ParseError, match="expected an integer"):
            structure_from_dict(doc)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("size", 2.0),
            ("size", False),
            ("order", 1.0),
            ("order", True),
            ("constants", 0.0),
            ("constants", False),
        ],
    )
    def test_non_integer_companion_number_refused(self, field, value):
        doc = {"size": 2, "order": [0, 1], "constants": [0]}
        doc[field] = value if field == "size" else [value] + doc[field][1:]
        with pytest.raises(ParseError, match="expected an integer"):
            companion_from_dict(doc)

    def test_oversized_companion_is_parse_error(self):
        # Too large for range(), which raises OverflowError.
        with pytest.raises(ParseError):
            companion_from_dict({"size": 10**400, "order": [0]})

    def test_oversized_structure_is_parse_error(self):
        # range() cannot index a size past sys.maxsize, so no search could run.
        doc = {"signature": [{"name": "E", "arity": 2}], "size": 10**400}
        with pytest.raises(ParseError, match="size exceeds"):
            structure_from_dict(doc)

    @pytest.mark.parametrize("name", [5, None, ["E"]])
    def test_non_string_symbol_name_refused(self, name):
        # signature() would read 5 as "5"; the file loader refuses it.
        doc = {"signature": [{"name": name, "arity": 2}], "size": 3, "relations": {}}
        with pytest.raises(ParseError, match="symbol name"):
            structure_from_dict(doc)


def _records() -> list[Record]:
    """One instance of every record class of the library."""
    sig = Signature((("E", 2),))
    a, b = Eq("u", "v"), Rel("E", ("u", "v"))
    lt = LiteralType((0, 1), (None, None), 0)
    return [
        sig,
        Structure(sig, 2, (frozenset({(0, 1)}),)),
        Companion(3, (2, 0, 1), (2,)),
        ChainWitness.of([0], [1, 2]),
        KernelReport(1, (((0,), (1, 2)),), 3),
        ProfileReport((1, 2)),
        PartialMap(((1, 0), (0, 1))),
        ChainOrderFamily(frozenset({0}), ((1, 2), (2, 1))),
        GpwClassification("AllOrders", evidence={"order_count": 2}),
        lt,
        QfDefinitionSet((("E", 2, (lt,)),)),
        a,
        b,
        Not(a),
        And(a, b),
        Or(a, b),
        Exists("u", b),
        Forall("u", b),
        corpus.RandomSpec(seed=1, size=3),
    ]


def _fields(r: Record) -> tuple:
    return tuple(getattr(r, name) for name in r._fields)


class TestRecords:
    """Records are tuples underneath; these are the dataclass-like parts of
    their contract that the library relies on."""

    def test_every_record_class_is_covered(self):
        def leaves(cls):
            for sub in cls.__subclasses__():
                yield from leaves(sub) if sub.__subclasses__() else (sub,)

        assert set(leaves(Record)) == {type(r) for r in _records()}

    def test_equality_is_class_strict(self):
        a, b = Eq("u", "v"), Rel("E", ("u", "v"))
        assert And(a, b) != Or(a, b)
        assert not And(a, b) == Or(a, b)
        assert Exists("u", b) != Forall("u", b)
        symbols = (("E", 2),)
        assert Signature(symbols) != (symbols,)
        assert (symbols,) != Signature(symbols)
        for r in _records():
            assert r != _fields(r) and not r == _fields(r), r
            assert r == copy.copy(r) and not r != copy.copy(r), r

    def test_hash_is_the_hash_of_the_fields(self):
        for r in _records():
            if isinstance(r, GpwClassification):  # its evidence is a dict
                with pytest.raises(TypeError):
                    hash(r)
            else:
                assert hash(r) == hash(_fields(r)), r

    def test_records_are_immutable_and_have_no_dict(self):
        for r in _records():
            assert not hasattr(r, "__dict__"), r
            for name in (r._fields[0], "extra"):
                with pytest.raises(AttributeError):
                    setattr(r, name, None)

    def test_repr_names_the_class_and_fields(self):
        assert repr(Eq("u", "v")) == "Eq(left='u', right='v')"
        for r in _records():
            shown = ", ".join(f"{name}={getattr(r, name)!r}" for name in r._fields)
            assert repr(r) == f"{type(r).__name__}({shown})"

    def test_copies_and_pickles_round_trip(self):
        # And and Or take their parts spread, not as one tuple.
        for r in _records():
            assert copy.deepcopy(r) == r
            assert pickle.loads(pickle.dumps(r)) == r

    def test_keyword_defaults(self):
        assert GpwClassification("AllOrders").evidence == {}
        assert GpwClassification("AllOrders").evidence is not GpwClassification("AllOrders").evidence
        assert corpus.RandomSpec(0, 3) == corpus.RandomSpec(0, 3, 1, 2, 2, 0.5)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Signature((("E", 2), ("E", 1))), DomainError,
             "duplicate symbol names in signature: ['E', 'E']"),
            (lambda: Structure(Signature(()), -1, ()), DomainError, "size must be non-negative"),
            (lambda: Companion(2, (0, 0), ()), DomainError,
             "order must be a permutation of the domain"),
            (lambda: PartialMap(((0, 1), (0, 2))), DomainError,
             "partial map has a repeated source"),
            (lambda: ChainOrderFamily(frozenset(), ((0, 1),)), DomainError,
             "family is not closed under reversal: (0, 1) is in, (1, 0) is not"),
            (lambda: LiteralType((), (), 0), DomainError,
             "literal type needs at least one variable"),
            (lambda: QfDefinitionSet((("E", 2, ()), ("E", 2, ()))), DomainError,
             "duplicate symbols in definition set"),
            (lambda: corpus.RandomSpec(seed=0, size=3, density=2.0), DomainError,
             "density must lie in [0, 1]"),
            (lambda: And(Eq("u", "v")), FormulaError, "And needs at least two parts, got 1"),
            (lambda: Or(), FormulaError, "Or needs at least two parts, got 0"),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_validation_keeps_its_messages(self, build, error, message):
        with pytest.raises(error) as excinfo:
            build()
        assert str(excinfo.value) == message
