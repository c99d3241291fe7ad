"""Partial maps, local automorphisms, isomorphism search, canonical forms.

A partial automorphism (also called a local automorphism) is a finite
injective partial map on the domain that preserves every relation in both
directions on the tuples it can see.  Everything here is brute force by
design: the library only ever canonicalizes structures of bounded size, and
exhaustive search is the trusted oracle for the rest of the code base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .core import CACHE_SIZE, Structure, induced_substructure
from .errors import DomainError, UnsupportedSizeError

CANONICAL_SIZE_CAP = 8


@dataclass(frozen=True, slots=True)
class PartialMap:
    """A finite injective partial function, stored as source-sorted pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        sources = [s for s, _ in self.pairs]
        targets = [t for _, t in self.pairs]
        if len(set(sources)) != len(sources):
            raise DomainError("partial map has a repeated source")
        if len(set(targets)) != len(targets):
            raise DomainError("partial map has a repeated target (not injective)")
        if list(self.pairs) != sorted(self.pairs):
            object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    @staticmethod
    def of(mapping: dict[int, int] | list[tuple[int, int]]) -> "PartialMap":
        items = mapping.items() if isinstance(mapping, dict) else mapping
        return PartialMap(tuple(sorted((int(s), int(t)) for s, t in items)))

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.pairs)

    @property
    def targets(self) -> tuple[int, ...]:
        return tuple(t for _, t in self.pairs)

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True, slots=True, order=True)
class CanonicalForm:
    """A total-order-comparable encoding of an isomorphism class.

    Equal size and signature plus equal form is equivalent to isomorphism;
    the encoding also folds in size and signature so forms from different
    shapes never collide.
    """

    data: bytes

    def hex(self) -> str:
        return self.data.hex()


def _preserves(y: Structure, mapping: dict[int, int]) -> bool:
    """Do all tuples over the map's sources keep their relation memberships?"""
    dom = list(mapping)
    for (_, arity), tuples in zip(y.sig.symbols, y.relations):
        for t in itertools.product(dom, repeat=arity):
            if (t in tuples) != (tuple(mapping[x] for x in t) in tuples):
                return False
    return True


def is_partial_automorphism(y: Structure, p: PartialMap) -> bool:
    """True iff ``p`` is an isomorphism between the substructures induced by
    its sources and targets."""
    for s, t in p.pairs:
        if not (0 <= s < y.size and 0 <= t < y.size):
            raise DomainError(f"pair ({s}, {t}) leaves the domain of size {y.size}")
    return _preserves(y, dict(p.pairs))


def enumerate_partial_automorphisms(
    y: Structure, max_dom: int
) -> Iterator[PartialMap]:
    """Yield every partial automorphism of ``y`` with domain size at most
    ``max_dom``, each exactly once, in lexicographic order of the sorted pair
    lists (the empty map first).

    A violated tuple stays violated in every extension, so the search can
    prune entire subtrees as soon as a candidate map fails.
    """
    if max_dom > y.size:
        raise DomainError("max_dom exceeds the domain size")
    m = y.size

    def extend(pairs: list[tuple[int, int]], used_targets: set[int]) -> Iterator[PartialMap]:
        yield PartialMap(tuple(pairs))
        if len(pairs) == max_dom:
            return
        next_source_min = pairs[-1][0] + 1 if pairs else 0
        for s in range(next_source_min, m):
            for t in range(m):
                if t in used_targets:
                    continue
                pairs.append((s, t))
                mapping = dict(pairs)
                if _preserves(y, mapping):
                    used_targets.add(t)
                    yield from extend(pairs, used_targets)
                    used_targets.discard(t)
                pairs.pop()

    yield from extend([], set())


def find_isomorphism(a: Structure, b: Structure) -> PartialMap | None:
    """First total isomorphism from ``a`` onto ``b`` in lexicographic
    permutation order, or None.  Signatures must agree exactly."""
    if a.sig != b.sig:
        raise DomainError("signature mismatch in isomorphism search")
    if a.size != b.size:
        return None
    if any(len(ra) != len(rb) for ra, rb in zip(a.relations, b.relations)):
        return None
    for perm in itertools.permutations(range(a.size)):
        if all(
            frozenset(tuple(perm[x] for x in t) for t in ra) == rb
            for ra, rb in zip(a.relations, b.relations)
        ):
            return PartialMap(tuple((i, perm[i]) for i in range(a.size)))
    return None


def canonical_form(y: Structure) -> CanonicalForm:
    """Minimum over all domain permutations of the relabeled relation sets.

    Exhaustive over size! permutations, so the size is capped at
    CANONICAL_SIZE_CAP; larger inputs raise UnsupportedSizeError.
    """
    if y.size > CANONICAL_SIZE_CAP:
        raise UnsupportedSizeError(
            f"canonical_form is exhaustive and capped at size {CANONICAL_SIZE_CAP}; "
            f"got {y.size}"
        )
    return _canonical_form_cached(y)


@lru_cache(maxsize=CACHE_SIZE)
def _canonical_form_cached(y: Structure) -> CanonicalForm:
    best = None
    for perm in itertools.permutations(range(y.size)):
        relabeled = tuple(
            tuple(sorted(tuple(perm[x] for x in t) for t in tuples))
            for tuples in y.relations
        )
        if best is None or relabeled < best:
            best = relabeled
    encoded = repr((y.size, y.sig.symbols, best)).encode("utf-8")
    return CanonicalForm(encoded)


def substructure_forms(y: Structure, n: int) -> dict[tuple[int, ...], CanonicalForm]:
    """The canonical form of every n-element induced substructure, keyed by
    the subset, in ``itertools.combinations`` order: the isomorphism type of
    each n-subset, shared by profiles, ages and trace checks."""
    return {
        h: canonical_form(induced_substructure(y, h))
        for h in itertools.combinations(range(y.size), n)
    }
