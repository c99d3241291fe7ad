"""Chainability decisions, chaining-order search, kernels, ages and profiles.

A structure is chainable over a frozen set F with respect to a linear order
on the complement when every order-increasing partial injection of the
complement, extended by the identity on F, is a partial automorphism.

Both the decision ``is_chainable_with`` and the search ``iter_chain_orders``
(behind ``find_chain_order``, ``kernel`` and
``gpw.enumerate_chaining_orders``) test type purity: an order chains the
structure exactly when, for each j up to the largest arity, all its j-subsets
have one quantifier-free type over F (Fraisse; Frasnay), read by
``core._subset_key`` as canonical-form keys are.  They share one purity step,
``_extends_purely``, over one table of types, ``_subset_types``: a decided
order is chainable exactly when it is a path of the search.  The search also
gives up on a complement of several 1-types and on a prefix some remaining
element cannot extend; it lists the same orders, lexicographically, with no
cap.  verify.py checks the decision against the full map oracle, which shares
no code with it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    Companion, Record, Structure, _subset_key, companion_structure, induced_substructure
)
from .errors import DomainError, UnsupportedSizeError

# ``morphism`` is imported by the functions that compute forms, so a process
# that computes none (a CLI verb such as kernel or find-order) never loads it.


class ChainWitness(Record, namedtuple("ChainWitness", "f_set rest_order")):
    """A frozen set together with a linear arrangement of its complement."""

    __slots__ = ()

    @staticmethod
    def of(f_set: Iterable[int], rest_order: Iterable[int]) -> "ChainWitness":
        return ChainWitness(frozenset(int(x) for x in f_set), tuple(int(x) for x in rest_order))


class KernelReport(Record, namedtuple("KernelReport", "min_size minimal_sets search_bound")):
    """Smallest frozen-set size admitting a chaining order, with every
    minimal set and one witness order each, as (set, order) tuple pairs.

    ``min_size`` is None when no set within ``search_bound`` works.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "min_size": self.min_size,
            "minimal_sets": [
                {"f": list(f), "order": list(order)} for f, order in self.minimal_sets
            ],
            "search_bound": self.search_bound,
        }


class ProfileReport(Record, namedtuple("ProfileReport", "values")):
    """Per-size counts of isomorphism types of induced substructures."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {"values": list(self.values)}


def _validate_witness(y: Structure, w: ChainWitness) -> None:
    rest = list(w.rest_order)
    if w.f_set & set(rest):
        raise DomainError("witness parts overlap")
    if len(w.f_set) + len(rest) != y.size or sorted(w.f_set | set(rest)) != list(range(y.size)):
        raise DomainError("witness does not partition the domain")


def _subset_types(y: Structure, fixed: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple]:
    """The memoised type over ``fixed`` of a tuple of non-frozen elements:
    ``core._subset_key(y.sig, y.relations, fixed + els)``, read straight off
    ``y``'s relations with ``fixed`` followed by the tuple as the labels.

    The key holds every word over these elements, not only those that use
    all chosen ones, and still decides purity as those would.  A word using
    some chosen elements is a word of the sub-tuple they form; words over F
    alone are the same for every tuple.  ``_extends_purely`` checks j = 1, 2,
    ... in order, on prefixes themselves built purely (by the search, or by
    the decision's in-order ``all``), so at level j every shorter sub-tuple
    of either side already has the type of as many first prefix elements,
    and two keys can differ only on words that use all j chosen elements."""
    types: dict[tuple[int, ...], tuple] = {}

    def type_of(els: tuple[int, ...]) -> tuple:
        if els not in types:
            types[els] = _subset_key(y.sig, y.relations, fixed + els)
        return types[els]

    return type_of


def is_chainable_with(y: Structure, w: ChainWitness) -> bool:
    """Decide chainability of ``y`` over the witness's frozen set with
    respect to its complement order: the order is chainable exactly when it
    is a path of ``iter_chain_orders``' search, that is, when each of its
    prefixes extends the one before purely (``_extends_purely``).

    Structures over the empty signature are chainable with any witness.
    """
    _validate_witness(y, w)
    rest, bound = w.rest_order, y.sig.max_arity()
    type_of = _subset_types(y, tuple(sorted(w.f_set)))
    return all(_extends_purely(type_of, rest[:i], bound) for i in range(1, len(rest) + 1))


def _extends_purely(
    type_of: Callable[[tuple[int, ...]], tuple], prefix: Sequence[int], bound: int
) -> bool:
    """Does every j-subset of ``prefix`` containing its last element (j up
    to ``bound``), read in prefix order, have the type of the first j prefix
    elements?  The one purity step of the decision and the search."""
    head, e = tuple(prefix[:-1]), prefix[-1]
    for j in range(1, min(bound, len(prefix)) + 1):
        first = type_of(tuple(prefix[:j]))
        for sub in itertools.combinations(head, j - 1):
            if type_of(sub + (e,)) != first:
                return False
    return True


def _in_domain(y: Structure, f_set: Iterable[int]) -> frozenset[int]:
    """The frozen set, or DomainError; checked by comparison, so the domain
    is never listed."""
    f = frozenset(int(x) for x in f_set)
    if any(not 0 <= x < y.size for x in f):
        raise DomainError(f"f_set {sorted(f)} leaves the domain of size {y.size}")
    return f


def iter_chain_orders(y: Structure, f_set: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Every complement order chaining ``y`` over ``f_set``, lexicographically.

    Backtracks over the ascending remaining elements, growing the prefix by
    ``e`` only when it then extends purely (``_extends_purely``, j up to the
    largest arity).  Two cuts change neither the orders listed nor their
    order: nothing comes out unless the complement has one 1-type over F
    (each singleton of a chaining order has the type of the first), and a
    prefix is dropped unless every remaining element extends it purely, since
    each follows the whole prefix in any completion.  There is no cap.
    """
    f = _in_domain(y, f_set)
    rest = [e for e in range(y.size) if e not in f]
    bound = y.sig.max_arity()
    type_of = _subset_types(y, tuple(sorted(f)))
    if len({type_of((e,)) for e in rest}) > 1:
        return
    prefix: list[int] = []

    def extend(remaining: list[int]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(prefix)
        if not all(_extends_purely(type_of, prefix + [e], bound) for e in remaining):
            return
        for i, e in enumerate(remaining):
            prefix.append(e)
            yield from extend(remaining[:i] + remaining[i + 1 :])
            prefix.pop()

    yield from extend(rest)


def find_chain_order(y: Structure, f_set: Iterable[int]) -> tuple[int, ...] | None:
    """The first result of iter_chain_orders, or None."""
    return next(iter_chain_orders(y, f_set), None)


def kernel(y: Structure, max_f: int) -> KernelReport:
    """Exhaustive search for the smallest frozen sets admitting a chaining
    order, over sizes 0..max_f, stopping at the first size that succeeds.

    All sets of the winning size are reported (finite structures may have
    several minimal sets) with one witness order each, sorted by set.
    """
    if max_f < 0:
        raise DomainError("max_f must be non-negative")
    if max_f > y.size:
        raise DomainError("max_f exceeds the domain size")
    for size in range(max_f + 1):
        found = []
        for f in itertools.combinations(range(y.size), size):
            order = find_chain_order(y, f)
            if order is not None:
                found.append((f, order))
        if found:
            return KernelReport(size, tuple(found), max_f)
    return KernelReport(None, (), max_f)


def witness_companion(w: ChainWitness) -> Companion:
    """The companion induced by a witness: frozen elements first (in sorted
    enumeration order), then the complement in witness order."""
    return companion_structure(
        len(w.f_set) + len(w.rest_order), sorted(w.f_set), w.rest_order
    )


# ---------------------------------------------------------------------------
# Ages and profiles


def profile(y: Structure, up_to: int) -> ProfileReport:
    """Isomorphism-type counts of n-element induced substructures for
    n = 1..up_to.  Bounded by the canonical-form regime (size <= 8)."""
    from .morphism import CANONICAL_SIZE_CAP

    if up_to < 0:
        raise DomainError("up_to must be non-negative")
    if up_to > min(y.size, CANONICAL_SIZE_CAP):
        raise UnsupportedSizeError(
            f"profile up_to={up_to} exceeds min(size, {CANONICAL_SIZE_CAP}) = "
            f"{min(y.size, CANONICAL_SIZE_CAP)}"
        )
    return ProfileReport(tuple(len(age_forms(y, n)) for n in range(1, up_to + 1)))


def _check_age_size(y: Structure, n: int) -> None:
    from .morphism import CANONICAL_SIZE_CAP

    if not (1 <= n <= y.size):
        raise DomainError(f"age size {n} out of range for domain of size {y.size}")
    if n > CANONICAL_SIZE_CAP:
        raise UnsupportedSizeError(
            f"age computation capped at substructure size {CANONICAL_SIZE_CAP}"
        )


def age_forms(y: Structure, n: int) -> frozenset[bytes]:
    """Canonical forms of all n-element induced substructures."""
    from .morphism import substructure_forms

    _check_age_size(y, n)
    return frozenset(substructure_forms(y, n).values())


def age_representatives(y: Structure, n: int) -> tuple[Structure, ...]:
    """One induced n-element substructure per isomorphism type, ordered by
    canonical form.  Suitable as a family for age sentences."""
    from .morphism import substructure_forms

    _check_age_size(y, n)
    first: dict[bytes, tuple[int, ...]] = {}
    for h, form in substructure_forms(y, n).items():
        first.setdefault(form, h)
    return tuple(induced_substructure(y, first[form]) for form in sorted(first))


def check_profile_bound(y: Structure, kernel_size: int, up_to: int) -> bool:
    """Do all profile values up to ``up_to`` stay within 2**kernel_size?"""
    report = profile(y, up_to)
    return all(v <= 2**kernel_size for v in report.values)


def check_trace_isomorphism(y: Structure, w: ChainWitness, n: int) -> bool:
    """For a chainable witness, n-subsets with the same trace on the frozen
    set must induce isomorphic substructures.  Returns the check's outcome;
    a non-chainable witness is a precondition violation and raises."""
    from .morphism import substructure_forms

    if not is_chainable_with(y, w):
        raise DomainError("witness does not chain the structure")
    if not (1 <= n <= y.size):
        raise DomainError(f"subset size {n} out of range")
    by_trace: dict[frozenset[int], bytes] = {}
    for h, form in substructure_forms(y, n).items():
        if by_trace.setdefault(frozenset(h) & w.f_set, form) != form:
            return False
    return True


def age_subset(z: Structure, y: Structure, n: int) -> bool:
    """Does every isomorphism type of n-element substructures of ``z`` occur
    in ``y``?  Signatures must agree exactly."""
    if z.sig != y.sig:
        raise DomainError("signature mismatch in age comparison")
    return age_forms(z, n) <= age_forms(y, n)
