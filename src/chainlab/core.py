"""Finite relational structures and their ordered companions.

A structure is a finite domain {0, ..., m-1} together with one tuple-set per
relation symbol of a fixed signature.  Domains are always initial segments of
the naturals and substructures are relabeled order-preservingly, so that
structure equality is plain syntactic equality and isomorphism classes can be
keyed by canonical forms.

A companion is a linear rearrangement of the same domain in which a chosen
enumeration of "frozen" elements forms an initial segment, each one marked by
its own unary predicate.  The implied language has one binary symbol (the
order) and one unary symbol per marked element.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import namedtuple
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, ParseError


class Record:
    """The base of the library's immutable records, each declared as
    ``class X(Record, namedtuple("X", "field ..."))`` with ``__slots__ = ()``
    and validated in ``__new__``.  Equality is class-strict: a record equals
    only a record of its own class with equal fields, never a plain tuple.
    The hash is the hash of the field tuple."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class Signature(Record, namedtuple("Signature", "symbols")):
    """An ordered list of (name, arity) relation symbols.

    Symbol order is significant and preserved by every operation, so two
    structures are equal only when their signatures agree symbol-for-symbol.
    """

    __slots__ = ()

    def __new__(cls, symbols: tuple[tuple[str, int], ...]):
        names = [name for name, _ in symbols]
        if len(set(names)) != len(names):
            raise DomainError(f"duplicate symbol names in signature: {names}")
        for name, arity in symbols:
            if not isinstance(name, str) or not name:
                raise DomainError(f"symbol name must be a non-empty string: {name!r}")
            if not isinstance(arity, int) or arity < 1:
                raise DomainError(f"arity of {name!r} must be a positive integer")
        return tuple.__new__(cls, (symbols,))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def arity(self, name: str) -> int:
        return self.symbols[self.index(name)][1]

    def index(self, name: str) -> int:
        for i, (sym, _) in enumerate(self.symbols):
            if sym == name:
                return i
        raise DomainError(f"unknown symbol {name!r}")

    def max_arity(self) -> int:
        return max((ar for _, ar in self.symbols), default=0)


def signature(pairs: Iterable[tuple[str, int]]) -> Signature:
    return Signature(tuple((str(n), int(a)) for n, a in pairs))


class Structure(Record, namedtuple("Structure", "sig size relations")):
    """A finite relational structure on domain {0, ..., size-1}.

    ``relations`` is aligned with ``sig.symbols``; each entry is a frozenset
    of arity-length tuples.  Tuples with repeated entries are admitted: every
    relation lives inside the full cartesian power of the domain.
    """

    __slots__ = ()

    def __new__(cls, sig: Signature, size: int, relations: tuple[frozenset[tuple[int, ...]], ...]):
        if size < 0:
            raise DomainError("size must be non-negative")
        if len(relations) != len(sig.symbols):
            raise DomainError("relation count must equal signature symbol count")
        for (name, arity), tuples in zip(sig.symbols, relations):
            for t in tuples:
                if len(t) != arity:
                    raise DomainError(f"tuple {t} has wrong arity for {name!r}")
                if any(not (0 <= x < size) for x in t):
                    raise DomainError(f"tuple {t} of {name!r} leaves the domain")
        return tuple.__new__(cls, (sig, size, relations))

    def relation(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.relations[self.sig.index(name)]


def structure(
    size: int,
    relations: Mapping[str, Iterable[Sequence[int]]],
    sig: Signature | Iterable[tuple[str, int]],
) -> Structure:
    """Convenience constructor: a symbol of ``sig`` missing from
    ``relations`` is empty, and a relation for a symbol outside ``sig``
    raises DomainError."""
    if not isinstance(sig, Signature):
        sig = signature(sig)
    rels = []
    for name, _ in sig.symbols:
        tuples = relations.get(name, ())
        rels.append(frozenset(tuple(int(x) for x in t) for t in tuples))
    unknown = sorted(set(relations) - set(sig.names))
    if unknown:
        raise DomainError(f"relations for unknown symbols: {unknown}")
    return Structure(sig, size, tuple(rels))


# ---------------------------------------------------------------------------
# Substructures and reducts


# Word tables of at most this many words are built once and shared, so that
# the structures built from them share their tuple objects; larger ones are
# generated afresh on each call, so no large one is ever held.  The same cap
# sets a subset key's format (``_subset_key``): a bit mask over at most this
# many words, else the sorted members.
SHARED_WORDS_CAP = 512


def words(m: int, arity: int) -> Iterable[tuple[int, ...]]:
    """Every arity-length word over {0, ..., m-1}, in lexicographic order: a
    shared tuple when there are at most SHARED_WORDS_CAP of them, else a
    one-pass iterator."""
    if m**arity <= SHARED_WORDS_CAP:
        return _shared_words(m, arity)
    return itertools.product(range(m), repeat=arity)


@lru_cache(maxsize=64)
def _shared_words(m: int, arity: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(range(m), repeat=arity))


# 1 << i for every word position of a bit-mask key.
_POWERS = [1 << i for i in range(SHARED_WORDS_CAP)]


def _subset_key(sig: Signature, relations: Sequence[frozenset], hs: Sequence[int]) -> tuple:
    """The quantifier-free type of the distinct elements ``hs``, in the order
    given: the substructure they induce, with ``hs[i]`` as label i, read off
    the relations (tuple sets, in ``sig`` order) of a structure.  One entry
    per relation: a bit mask over the label words in lex order (bit i: the
    i-th word is a member), or, past SHARED_WORDS_CAP words, the sorted
    relabeled members, read from the words or the members, whichever are
    fewer.  Chainability types and canonical-form cache keys are both these
    keys; they pin no structure.  ``_members`` is the one decoder of the
    format, so no other module reads a key's parts."""
    key = []
    for (_, arity), tuples in zip(sig.symbols, relations):
        if len(hs) ** arity <= SHARED_WORDS_CAP:
            members = map(tuples.__contains__, itertools.product(hs, repeat=arity))
            key.append(sum(itertools.compress(_POWERS, members)))
        elif len(hs) ** arity <= len(tuples):
            members = map(tuples.__contains__, itertools.product(hs, repeat=arity))
            key.append(tuple(itertools.compress(words(len(hs), arity), members)))
        else:
            label = {e: i for i, e in enumerate(hs)}.__getitem__
            inside = set(hs).issuperset
            key.append(tuple(sorted(tuple(map(label, t)) for t in tuples if inside(t))))
    return tuple(key)


def _members(sig: Signature, n: int, key: tuple) -> list[list[tuple[int, ...]]]:
    """Each relation's members, in lex order, of the substructure on range(n)
    whose ``_subset_key`` is ``key``."""
    return [
        list(part) if isinstance(part, tuple)
        else [w for i, w in enumerate(words(n, arity)) if part >> i & 1]
        for part, (_, arity) in zip(key, sig.symbols)
    ]


def induced_substructure(y: Structure, h: Iterable[int]) -> Structure:
    """Restrict ``y`` to the subset ``h``, relabeled order-preservingly onto
    {0, ..., |h|-1}, by decoding (``_members``) the subset's ``_subset_key``.
    Raises DomainError for an empty subset or out-of-range elements."""
    hs = sorted(set(h))
    if not hs:
        raise DomainError("induced substructure of the empty set is not defined")
    if hs[0] < 0 or hs[-1] >= y.size:
        raise DomainError(f"subset {hs} leaves the domain of size {y.size}")
    members = _members(y.sig, len(hs), _subset_key(y.sig, y.relations, hs))
    return Structure(y.sig, len(hs), tuple(map(frozenset, members)))


def reduct(y: Structure, keep: Iterable[str]) -> Structure:
    """Drop every relation symbol not in ``keep``; signature order is
    preserved, and ``y`` itself is returned when every symbol is kept.
    Unknown names raise DomainError."""
    keep_set = set(keep)
    unknown = keep_set - set(y.sig.names)
    if unknown:
        raise DomainError(f"unknown symbols in reduct: {sorted(unknown)}")
    if len(keep_set) == len(y.sig.symbols):
        return y
    pairs = tuple(p for p in y.sig.symbols if p[0] in keep_set)
    rels = tuple(
        y.relations[i] for i, p in enumerate(y.sig.symbols) if p[0] in keep_set
    )
    return Structure(Signature(pairs), y.size, rels)


# ---------------------------------------------------------------------------
# Companions


class Companion(Record, namedtuple("Companion", "size order constants")):
    """A linear order on {0, ..., size-1} with marked elements.

    ``order`` lists the domain in increasing companion order; ``constants``
    is the enumeration of marked elements.  Values built by
    ``companion_structure`` always place the constants as the initial segment
    of ``order``, in enumeration order; hand-built values may violate that,
    which ``validate_companion_axioms`` detects.
    """

    __slots__ = ()

    def __new__(cls, size: int, order: tuple[int, ...], constants: tuple[int, ...]):
        # The length is compared first, so no huge or negative size is listed.
        if len(order) != size or sorted(order) != list(range(size)):
            raise DomainError("order must be a permutation of the domain")
        if len(set(constants)) != len(constants):
            raise DomainError("constants must be distinct")
        if any(not (0 <= c < size) for c in constants):
            raise DomainError("constants must lie in the domain")
        return tuple.__new__(cls, (size, order, constants))

    @property
    def rest(self) -> tuple[int, ...]:
        """The unmarked elements, in companion order."""
        cs = set(self.constants)
        return tuple(e for e in self.order if e not in cs)


# Entries kept by each memo table: room for a corpus sweep's working set,
# bounded in long runs.
CACHE_SIZE = 1024


def companion_structure(
    m: int, f_enum: Sequence[int], rest_order: Sequence[int]
) -> Companion:
    """Build the companion whose order is ``f_enum`` followed by
    ``rest_order`` and whose constants are ``f_enum``.

    The two parts must partition {0, ..., m-1}: a repeat, an overlap or a
    gap makes the order no permutation, which ``Companion`` refuses with
    DomainError.
    """
    f_enum = tuple(int(x) for x in f_enum)
    return Companion(m, f_enum + tuple(int(x) for x in rest_order), f_enum)


def validate_companion_axioms(x: Companion) -> tuple[bool, bool, bool, bool]:
    """Check the four companion axioms.

    Returns (order is linear, constants are distinct singletons, constants
    ordered as their indices, constants form an initial segment).  The first
    two hold by representation for any well-formed Companion; the last two
    can fail for hand-built values.
    """
    is_linear = sorted(x.order) == list(range(x.size))
    distinct = len(set(x.constants)) == len(x.constants) and all(
        0 <= c < x.size for c in x.constants
    )
    ordered = tuple(e for e in x.order if e in x.constants) == x.constants
    initial = set(x.order[: len(x.constants)]) == set(x.constants)
    return (is_linear, distinct, ordered, initial)


@lru_cache(maxsize=CACHE_SIZE)
def companion_as_structure(x: Companion) -> Structure:
    """The companion, viewed as a relational structure over the reserved
    language: binary "R" (strict order) plus one unary "U<j>" per constant.
    Memoised: equal companions get the one (immutable) structure."""
    pairs = [("R", 2)] + [(f"U{j}", 1) for j in range(len(x.constants))]
    rels: dict[str, set] = {"R": set(itertools.combinations(x.order, 2))}
    for j, c in enumerate(x.constants):
        rels[f"U{j}"] = {(c,)}
    return structure(x.size, rels, pairs)


# ---------------------------------------------------------------------------
# JSON text formats (shared with the CLI)


def structure_to_dict(y: Structure) -> dict:
    return {
        "signature": [{"name": n, "arity": a} for n, a in y.sig.symbols],
        "size": y.size,
        "relations": {
            name: sorted([list(t) for t in y.relations[i]])
            for i, (name, _) in enumerate(y.sig.symbols)
        },
    }


def _json_int(x: object) -> int:
    if type(x) is not int:  # a float or a boolean is refused, not coerced
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _json_name(x: object) -> str:
    if type(x) is not str:  # signature() would read 5 as "5"
        raise TypeError(f"expected a symbol name string, got {x!r}")
    return x


def structure_from_dict(doc: dict) -> Structure:
    try:
        sig = signature((_json_name(s["name"]), _json_int(s["arity"])) for s in doc["signature"])
        size = _json_int(doc["size"])
        if size > sys.maxsize:  # range() cannot index it
            raise ValueError(f"size exceeds {sys.maxsize}")
        relations = {
            name: [tuple(map(_json_int, t)) for t in tuples]
            for name, tuples in doc.get("relations", {}).items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed structure document: {exc}") from exc
    return structure(size, relations, sig)


def companion_from_dict(doc: dict) -> Companion:
    try:
        size = _json_int(doc["size"])
        if size > sys.maxsize:  # no order could list it
            raise ValueError(f"size exceeds {sys.maxsize}")
        order = tuple(map(_json_int, doc["order"]))
        return Companion(size, order, tuple(map(_json_int, doc.get("constants", []))))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed companion document: {exc}") from exc


def load_structure(path: str) -> Structure:
    return structure_from_dict(_load_json(path))


def load_companion(path: str) -> Companion:
    return companion_from_dict(_load_json(path))


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return doc
