"""Quantifier-free definability over companions, age sentences, and the two
syntactic translations between object and companion languages.

The central gadget is the literal type of a tuple over a companion: the
complete quantifier-free description of the tuple in the companion language,
stored structurally as an equality partition, the order of the partition
blocks, and each block's optional constant mark.  Types are hashable, so
class deduplication and purity checks are exact; rendering a type as a
formula is a separate deterministic step.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .core import (
    CACHE_SIZE,
    SHARED_WORDS_CAP,
    Companion,
    Record,
    Signature,
    Structure,
    companion_as_structure,
    reduct,
    words,
)
from .errors import DomainError, NotSimplyDefinableError, UnsupportedSizeError
from .formulas import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Rel,
    and_all,
    distinctness,
    eval_formula,
    falsum,
    implies,
    map_atoms,
    or_all,
)

# ``morphism`` is imported where forms are compared, as in ``chainability``.

AGE_SENTENCE_SIZE_CAP = 6


# ---------------------------------------------------------------------------
# Literal types


class LiteralType(Record, namedtuple("LiteralType", "block_of marks num_constants")):
    """The quantifier-free type of a k-tuple over a companion.

    ``block_of[i]`` is the rank of variable i's value among the distinct
    values of the tuple, in companion order (equal ranks mean equal values).
    ``marks[r]`` is the constant index carried by rank r, or None.  Constants
    form an initial segment of the companion, so marked ranks precede
    unmarked ones and their marks strictly increase.
    """

    __slots__ = ()

    def __new__(cls, block_of: tuple[int, ...], marks: tuple[int | None, ...], num_constants: int):
        if len(block_of) < 1:
            raise DomainError("literal type needs at least one variable")
        if sorted(set(block_of)) != list(range(len(marks))):
            raise DomainError("block indices must cover 0..blocks-1")
        marked = [m for m in marks if m is not None]
        if marks[: len(marked)] != tuple(marked):
            raise DomainError("marked blocks must precede unmarked blocks")
        if any(m2 <= m1 for m1, m2 in zip(marked, marked[1:])):
            raise DomainError("constant marks must strictly increase")
        if any(not (0 <= m < num_constants) for m in marked):
            raise DomainError("constant mark out of range")
        return tuple.__new__(cls, (block_of, marks, num_constants))

    @property
    def arity(self) -> int:
        return len(self.block_of)

    def sort_key(self) -> tuple:
        return (self.block_of, tuple(-1 if m is None else m for m in self.marks))


# Validation runs once per distinct type; user-built types validate each time.
_interned_type = lru_cache(maxsize=CACHE_SIZE)(LiteralType)


def literal_type(x: Companion, point: Sequence[int]) -> LiteralType:
    """The literal type realized by ``point`` in the companion ``x``, which
    must be valid.

    Two tuples receive equal types exactly when they satisfy the same
    companion literals.
    """
    _require_valid_companion(x)
    point = tuple(map(int, point))
    for v in point:
        if not (0 <= v < x.size):
            raise DomainError(f"tuple entry {v} leaves the domain of size {x.size}")
    return _standard_type(len(x.constants), tuple(map(x.order.index, point)))


@lru_cache(maxsize=CACHE_SIZE)
def _standard_type(num_constants: int, positions: tuple[int, ...]) -> LiteralType:
    """The literal type of a word of positions in a valid companion with
    ``num_constants`` constants: its rank pattern, each block marked by its
    position while that is below ``num_constants``, since constant j sits at
    position j."""
    distinct = sorted(set(positions))
    rank = {p: r for r, p in enumerate(distinct)}.__getitem__
    marks = tuple(p if p < num_constants else None for p in distinct)
    return _interned_type(tuple(map(rank, positions)), marks, num_constants)


def render_literal_type(t: LiteralType, variables: Sequence[str]) -> Formula:
    """The type as a quantifier-free companion-language formula: the
    conjunction of every satisfied literal, in a fixed order (equalities,
    then order atoms, then unary atoms, each lexicographic).  Reflexive
    literals are skipped as trivia."""
    return _rendered_type(t, tuple(variables))


# Formula trees are immutable, so every caller may share one rendering.
@lru_cache(maxsize=CACHE_SIZE)
def _rendered_type(t: LiteralType, variables: tuple[str, ...]) -> Formula:
    if len(variables) != t.arity:
        raise DomainError(
            f"type over {t.arity} variables rendered with {len(variables)} names"
        )
    lits: list[Formula] = []
    k = t.arity
    for i, j in itertools.combinations(range(k), 2):
        atom = Eq(variables[i], variables[j])
        lits.append(atom if t.block_of[i] == t.block_of[j] else Not(atom))
    for i, j in itertools.permutations(range(k), 2):
        atom = Rel("R", (variables[i], variables[j]))
        lits.append(atom if t.block_of[i] < t.block_of[j] else Not(atom))
    for i in range(k):
        mark = t.marks[t.block_of[i]]
        for c in range(t.num_constants):
            atom = Rel(f"U{c}", (variables[i],))
            lits.append(atom if mark == c else Not(atom))
    if not lits:
        # One variable, no constants: the unique type, true of every point.
        return Eq(variables[0], variables[0])
    return and_all(lits)


# ---------------------------------------------------------------------------
# Definition sets


class QfDefinitionSet(Record, namedtuple("QfDefinitionSet", "entries")):
    """Per relation symbol, the set of literal types whose union defines it
    (a disjunctive normal form over the companion language): ``entries``
    holds one (name, arity, types) triple per symbol."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[str, int, tuple[LiteralType, ...]], ...]):
        names = [name for name, _, _ in entries]
        if len(set(names)) != len(names):
            raise DomainError("duplicate symbols in definition set")
        for name, arity, types in entries:
            for t in types:
                if t.arity != arity:
                    raise DomainError(
                        f"definition of {name!r} mixes arities {arity} and {t.arity}"
                    )
        return tuple.__new__(cls, (entries,))

    def types_for(self, name: str) -> tuple[LiteralType, ...]:
        for sym, _, types in self.entries:
            if sym == name:
                return types
        raise DomainError(f"no definition for symbol {name!r}")


def make_definition_set(
    entries: Iterable[tuple[str, int, Iterable[LiteralType]]]
) -> QfDefinitionSet:
    return QfDefinitionSet(
        tuple(
            (name, arity, tuple(sorted(types, key=LiteralType.sort_key)))
            for name, arity, types in entries
        )
    )


def definition_formula(
    defs: QfDefinitionSet, symbol: str, variables: Sequence[str]
) -> Formula:
    """The DNF definition of ``symbol`` instantiated at the given variable
    names.  An empty type set renders as an explicit contradiction."""
    types = _types_at_arity(defs, symbol, len(variables))
    if not types:
        return falsum(variables[0])
    return or_all(render_literal_type(t, variables) for t in types)


def _types_at_arity(defs: QfDefinitionSet, symbol: str, arity: int) -> tuple[LiteralType, ...]:
    """The types defining ``symbol``, refused unless it has that arity."""
    types = defs.types_for(symbol)
    declared = next(a for name, a, _ in defs.entries if name == symbol)
    if arity != declared:
        raise DomainError(f"{symbol!r} has arity {declared}, applied to {arity} variables")
    return types


def _require_valid_companion(x: Companion) -> None:
    """``core.validate_companion_axioms``, given what ``Companion`` checks."""
    if tuple(x.order[: len(x.constants)]) != x.constants:
        raise DomainError("companion violates the ordering axioms")


def _require_constants(x: Companion, name: str, types: Iterable[LiteralType]) -> None:
    """Refuse a definition of ``name`` built for another number of constants
    than ``x`` carries."""
    for t in types:
        if t.num_constants != len(x.constants):
            raise DomainError(
                f"definition of {name!r} was built for {t.num_constants} "
                f"constants, companion has {len(x.constants)}"
            )


def _typed_words(x: Companion, arity: int) -> Iterator[tuple[tuple[int, ...], LiteralType]]:
    """Each word of ``core.words(x.size, arity)``, in lex order, with its
    literal type over the valid companion ``x``: the standard type of its
    entries' positions in ``x.order``, read off the words over the list of
    positions, which run in step."""
    position = sorted(range(x.size), key=x.order.__getitem__)
    positions = itertools.product(position, repeat=arity)
    return zip(words(x.size, arity), map(_standard_type, itertools.repeat(len(x.constants)), positions))


def extract_definitions(x: Companion, y: Structure) -> QfDefinitionSet:
    """Scan each relation's tuple space in lex order, typing every tuple over
    ``x``, and select the types met inside the relation.

    Every selected type must lie entirely inside the relation; an impure type
    aborts with NotSimplyDefinableError carrying two witness tuples: the
    least relation member whose type is impure, and the least non-member of
    that type.
    The structure and companion must share the domain.
    """
    _require_valid_companion(x)
    if x.size != y.size:
        raise DomainError("companion and structure must share the domain")
    entries = []
    for (name, arity), tuples in zip(y.sig.symbols, y.relations):
        # Each type's first point inside and outside, in the order first met.
        first_in, first_out = {}, {}
        for point, t in _typed_words(x, arity):
            (first_in if point in tuples else first_out).setdefault(t, point)
        for t, point in first_in.items():
            if t in first_out:
                raise NotSimplyDefinableError(name, t, point, first_out[t])
        entries.append((name, arity, first_in))
    return make_definition_set(entries)


def apply_definitions(
    x: Companion, defs: QfDefinitionSet, sig: Signature
) -> Structure:
    """The structure on the companion's domain whose relations hold exactly
    on tuples whose literal type belongs to each symbol's definition, found
    by one scan of the shared words of ``core.words``."""
    _require_valid_companion(x)
    relations = []
    for name, arity in sig.symbols:
        types = set(_types_at_arity(defs, name, arity))
        _require_constants(x, name, types)
        # On Python 3.11 a copied set is sized to the power of two above twice the
        # count, yet over 2,024 planted structures the copy takes less memory on
        # average than a set grown from a generator (3,068 B against 4,850 B).
        relations.append(frozenset({w for w, t in _typed_words(x, arity) if t in types}))
    return Structure(sig, x.size, tuple(relations))


def verify_definitions(x: Companion, y: Structure, defs: QfDefinitionSet) -> bool:
    """Membership-by-formula check: for every symbol, the points of the
    companion where some type of its definition, rendered as a formula, holds
    are exactly the relation's tuples.  Every point is decided by
    ``eval_formula``, so the check is independent of the structural type
    matching used by apply_definitions.  Each type's points over a companion
    are evaluated once and memoised while the companion has at most
    SHARED_WORDS_CAP points of its arity."""
    if x.size != y.size:
        raise DomainError("companion and structure must share the domain")
    for (name, arity), tuples in zip(y.sig.symbols, y.relations):
        types = _types_at_arity(defs, name, arity)
        _require_constants(x, name, types)
        memoised = x.size**arity <= SHARED_WORDS_CAP
        points = _satisfying_points if memoised else _satisfying_points.__wrapped__
        if set().union(*(points(x, t) for t in types)) != tuples:
            return False
    return True


@lru_cache(maxsize=CACHE_SIZE)
def _satisfying_points(x: Companion, t: LiteralType) -> tuple[tuple[int, ...], ...]:
    """The points of ``x`` on which the rendering of ``t`` holds."""
    x_struct = companion_as_structure(x)
    variables = tuple(f"v{i}" for i in range(t.arity))
    phi = render_literal_type(t, variables)
    return tuple(
        p for p in words(x.size, t.arity) if eval_formula(phi, x_struct, dict(zip(variables, p)))
    )


# ---------------------------------------------------------------------------
# Age sentences


def _literal_conjunction(
    k: Structure, keep: Sequence[str], names: Sequence[str]
) -> Formula:
    """Conjunction of every literal over the kept symbols that the identity
    enumeration of ``k`` satisfies, with variable i rendered as names[i].

    Literal order: negated equalities (all domain elements are distinct),
    then relational literals per kept symbol in signature order, index
    tuples lexicographic.
    """
    lits: list[Formula] = [
        Not(Eq(names[i], names[j]))
        for i, j in itertools.combinations(range(k.size), 2)
    ]
    keep_set = set(keep)
    for (sym, arity), tuples in zip(k.sig.symbols, k.relations):
        if sym not in keep_set:
            continue
        for idx in itertools.product(range(k.size), repeat=arity):
            atom = Rel(sym, tuple(names[i] for i in idx))
            lits.append(atom if idx in tuples else Not(atom))
    if not lits:
        # Size-1 member with empty kept signature: no literal distinguishes
        # anything, so the type is the trivially true description.
        return Eq(names[0], names[0])
    return and_all(lits)


def _match_formula(k: Structure, keep: Sequence[str], variables: list[str]) -> Formula:
    """Disjunction over all enumerations: some permutation of the variables
    satisfies the member's literal description."""
    disjuncts = []
    for pi in itertools.permutations(range(k.size)):
        names = [variables[pi[i]] for i in range(k.size)]
        disjuncts.append(_literal_conjunction(k, keep, names))
    return or_all(disjuncts)


def _validate_family(family: Sequence[Structure], keep: Iterable[str]) -> list[str]:
    """The kept symbols in signature order, once the family is valid."""
    from .morphism import canonical_form

    if not family:
        raise DomainError("age sentence needs a non-empty family")
    n = family[0].size
    sig = family[0].sig
    for k in family:
        if k.size != n:
            raise DomainError(f"family members have sizes {n} and {k.size}")
        if k.sig != sig:
            raise DomainError("family members must share the signature")
    if n < 1:
        raise DomainError("family members must be non-empty structures")
    if n > AGE_SENTENCE_SIZE_CAP:
        raise UnsupportedSizeError(
            f"age sentences enumerate all {n}! variable orders; size capped at "
            f"{AGE_SENTENCE_SIZE_CAP}"
        )
    forms = [canonical_form(k) for k in family]
    if len(set(forms)) != len(forms):
        raise DomainError("family members must be pairwise non-isomorphic")
    keep_list = [name for name in sig.names if name in set(keep)]
    unknown = set(keep) - set(sig.names)
    if unknown:
        raise DomainError(f"kept symbols not in the family signature: {sorted(unknown)}")
    return keep_list


def _closed(quantifier, variables: Sequence[str], body: Formula) -> Formula:
    """``body`` under ``quantifier`` over each of ``variables``, the first
    outermost."""
    for var in reversed(variables):
        body = quantifier(var, body)
    return body


def age_sentence(family: Sequence[Structure], keep: Iterable[str]) -> Formula:
    """The sentence asserting that the isomorphism types of n-element
    substructures, after restriction to the kept symbols, are exactly the
    kept-symbol types of the family members.

    Built as: for each member, some n distinct points match it; and every n
    distinct points match some member.
    """
    return _age_sentence(family, _validate_family(family, keep))


def _age_sentence(family: Sequence[Structure], keep_list: list[str]) -> Formula:
    """``age_sentence`` of a family that ``_validate_family`` accepted."""
    variables = [f"v{i}" for i in range(family[0].size)]
    matchers = [_match_formula(k, keep_list, variables) for k in family]
    parts: list[Formula] = [_closed(Exists, variables, phi) for phi in matchers]
    disjunction = or_all(matchers)
    guard = distinctness(variables)
    body = disjunction if guard is None else implies(guard, disjunction)
    parts.append(_closed(Forall, variables, body))
    return and_all(parts)


def check_age_sentence_agreement(
    family: Sequence[Structure], keep: Iterable[str], y: Structure
) -> bool:
    """Compare the sentence evaluator against the direct semantic check
    (set equality of canonical forms of kept-symbol substructure types).
    Any False is a construction bug, not a property of the inputs."""
    keep_list = _validate_family(family, keep)
    return _age_sentence_verdict(family, keep_list, _age_sentence(family, keep_list), y)[0]


def _age_sentence_verdict(
    family: Sequence[Structure], keep_list: list[str], sentence: Formula, y: Structure
) -> tuple[bool, bool]:
    """Whether the age sentence of a validated family agrees on ``y`` with
    the direct check, and the sentence's value on ``y``."""
    from .morphism import canonical_form, substructure_forms

    if y.sig != family[0].sig:
        raise DomainError("structure under test must share the family signature")
    family_forms = {canonical_form(reduct(k, keep_list)) for k in family}
    # Reduct commutes with restriction, so these are the kept-symbol types
    # of the n-element substructures of y.  Listing them first refuses an
    # oversized y before the sentence is evaluated on it.
    realized = set(substructure_forms(reduct(y, keep_list), family[0].size).values())
    value = eval_formula(sentence, y, {})
    return value == (realized == family_forms), value


# ---------------------------------------------------------------------------
# Syntactic translations


def quotient_translate(
    f: Formula, symbol_map: dict[str, str], sig: Signature
) -> Formula:
    """Replace every atom's symbol by its representative, leaving the tree
    untouched otherwise.  Symbols missing from the map stay as they are;
    mapped pairs must have equal arities in ``sig``."""
    for src, dst in symbol_map.items():
        if sig.arity(src) != sig.arity(dst):
            raise DomainError(
                f"quotient map sends {src!r} (arity {sig.arity(src)}) to "
                f"{dst!r} (arity {sig.arity(dst)})"
            )
    return map_atoms(
        f, lambda atom: Rel(symbol_map.get(atom.symbol, atom.symbol), atom.args)
    )


def star_translate(f: Formula, defs: QfDefinitionSet) -> Formula:
    """Translate an object-language formula into the companion language by
    replacing every relational atom with its quantifier-free definition
    instantiated at the atom's variables.  Equalities and the logical
    skeleton pass through unchanged."""
    return map_atoms(f, lambda atom: definition_formula(defs, atom.symbol, atom.args))


# ---------------------------------------------------------------------------
# Companion-language sentence families


def theory_star_sentences(k: int) -> list[Formula]:
    """The companion axioms as sentences over "R", "U0", ..., "U<k-1>":
    strict linear order, marked singletons, marks ordered by index, marks an
    initial segment.  Groups that are vacuous for small ``k`` are omitted."""
    if k < 0:
        raise DomainError("constant count must be non-negative")
    u, v, w = "u", "v", "w"
    r_uv = Rel("R", (u, v))
    sentences: list[Formula] = [
        and_all(
            [
                Forall(u, Not(Rel("R", (u, u)))),
                _closed(
                    Forall,
                    (u, v, w),
                    implies(And(Rel("R", (u, v)), Rel("R", (v, w))), Rel("R", (u, w))),
                ),
                _closed(Forall, (u, v), implies(Not(Eq(u, v)), Or(r_uv, Rel("R", (v, u))))),
            ]
        )
    ]
    if k >= 1:
        singleton_parts: list[Formula] = [
            Exists(
                v,
                And(
                    Rel(f"U{j}", (v,)),
                    Forall(u, implies(Rel(f"U{j}", (u,)), Eq(u, v))),
                ),
            )
            for j in range(k)
        ]
        singleton_parts.extend(
            Forall(u, Not(And(Rel(f"U{a}", (u,)), Rel(f"U{b}", (u,)))))
            for a, b in itertools.combinations(range(k), 2)
        )
        sentences.append(and_all(singleton_parts))
    if k >= 2:
        sentences.append(
            and_all(
                _closed(
                    Forall, (u, v), implies(And(Rel(f"U{a}", (u,)), Rel(f"U{b}", (v,))), r_uv)
                )
                for a, b in itertools.combinations(range(k), 2)
            )
        )
    if k >= 1:
        others = [Not(Rel(f"U{j}", (v,))) for j in range(k)]
        sentences.append(
            _closed(Forall, (u, v), implies(And(Rel(f"U{k - 1}", (u,)), and_all(others)), r_uv))
        )
    return sentences

