"""Enumeration and classification of chaining-order families.

For a structure and a frozen set F, the family collects every linear
arrangement of the complement that chains the structure over F.  Such a
family is always closed under reversal, because a chain and its reverse have
identical partial automorphisms.

Classification matches the family against three shapes, most specific first:

  * AllOrders            every arrangement of the complement belongs;
  * RotationFamily       the rotations of one base order plus their reverses
                         (one candidate per cut of the base);
  * BoundedPerturbation  a fixed middle with freely permuted finite end
                         blocks, plus reverses.

The trichotomy is a theorem for infinite structures; at finite scale it is a
pattern-matching target and Unmatched is a legal, loudly-reported outcome
rather than an error.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Iterable, Sequence

from .chainability import _in_domain, iter_chain_orders
from .core import Record, Structure
from .errors import DomainError, UnsupportedSizeError

ENUMERATION_REST_CAP = 8


class ChainOrderFamily(Record, namedtuple("ChainOrderFamily", "f_set orders")):
    """A frozen set together with every complement order that chains the
    structure over it.  Presentation order of ``orders`` is not significant;
    reversal closure is required."""

    __slots__ = ()

    def __new__(cls, f_set: frozenset[int], orders: tuple[tuple[int, ...], ...]):
        seen = set(orders)
        if len(seen) != len(orders):
            raise DomainError("family lists an order twice")
        for order in orders:
            if tuple(reversed(order)) not in seen:
                raise DomainError(
                    f"family is not closed under reversal: {order} is in, "
                    f"{tuple(reversed(order))} is not"
                )
        return tuple.__new__(cls, (f_set, orders))

    def sorted_orders(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.orders))

    def to_dict(self) -> dict:
        return {"f": sorted(self.f_set), "orders": [list(o) for o in self.sorted_orders()]}


class GpwClassification(Record, namedtuple("GpwClassification", "tag base k_set h_set evidence")):
    """Outcome of matching a family against the three shapes.

    ``base`` is set for RotationFamily and BoundedPerturbation; ``k_set`` and
    ``h_set`` (sorted end blocks of the base) only for the latter.  Evidence
    carries counts, the documented shape overlaps, and, for Unmatched, a
    witness order from the symmetric difference with the closest rotation
    pattern.
    """

    __slots__ = ()

    def __new__(cls, tag: str, base=None, k_set=None, h_set=None, evidence: dict | None = None):
        return tuple.__new__(cls, (tag, base, k_set, h_set, {} if evidence is None else evidence))

    def to_dict(self) -> dict:
        doc: dict = {"tag": self.tag, "evidence": dict(self.evidence)}
        if self.base is not None:
            doc["base"] = list(self.base)
        if self.k_set is not None:
            doc["k"] = list(self.k_set)
        if self.h_set is not None:
            doc["h"] = list(self.h_set)
        return doc


def enumerate_chaining_orders(y: Structure, f_set: Iterable[int]) -> ChainOrderFamily:
    """Every complement order of ``f_set`` that chains ``y``, listed
    lexicographically, from the type-purity search of iter_chain_orders.
    Capped at complement size 8."""
    f = _in_domain(y, f_set)
    if y.size - len(f) > ENUMERATION_REST_CAP:
        raise UnsupportedSizeError(
            f"enumerating {y.size - len(f)}! orders exceeds the cap of "
            f"{ENUMERATION_REST_CAP}! candidates"
        )
    return ChainOrderFamily(f, tuple(iter_chain_orders(y, f)))


def rotation_closure(base: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """All rotations of ``base`` together with their reverses (one pair per
    cut of the base into an initial and a final segment)."""
    base = tuple(base)
    out = set()
    for c in range(len(base) + 1):
        initial, final = base[:c], base[c:]
        out.add(final + initial)
        out.add(tuple(reversed(initial)) + tuple(reversed(final)))
    return frozenset(out)


def perturbation_closure(
    base: Sequence[int], k_len: int, h_len: int
) -> frozenset[tuple[int, ...]]:
    """Every order obtained from ``base`` by freely permuting its first
    ``k_len`` and last ``h_len`` elements around the fixed middle, plus the
    reverses of all of these."""
    base = tuple(base)
    r = len(base)
    if k_len < 0 or h_len < 0 or k_len + h_len > r:
        raise DomainError("end blocks exceed the order")
    k_part, middle, h_part = base[:k_len], base[k_len : r - h_len], base[r - h_len :]
    out = set()
    for pk in itertools.permutations(k_part):
        for ph in itertools.permutations(h_part):
            seq = pk + middle + ph
            out.add(seq)
            out.add(tuple(reversed(seq)))
    return frozenset(out)


def classify_family(fam: ChainOrderFamily) -> GpwClassification:
    """Match the family against the three shapes in order (AllOrders, then
    RotationFamily with the least order as base, then BoundedPerturbation
    minimizing the total end-block size); the first match wins.

    Ties among perturbation splits of equal total size break on the sorted
    end blocks, then on the base.  The result does not depend on the
    presentation order of ``fam.orders``.
    """
    if not fam.orders:
        raise DomainError("cannot classify an empty family")
    orders = sorted(set(fam.orders))
    order_set = frozenset(orders)
    rest = sorted(orders[0])
    for o in orders:
        if sorted(o) != rest:
            raise DomainError("family mixes orders over different element sets")
    r = len(rest)
    evidence = {"order_count": len(orders), "rest_size": r, "also_matches": []}

    if len(orders) == math.factorial(r):
        if r <= 2:
            evidence["also_matches"] = ["RotationFamily", "BoundedPerturbation"]
        return GpwClassification("AllOrders", evidence=evidence)

    # Every member of a rotation closure has that same closure: one base will do.
    base = orders[0]
    if rotation_closure(base) == order_set:
        if order_set == {base, tuple(reversed(base))}:
            evidence["also_matches"] = ["BoundedPerturbation"]
        return GpwClassification("RotationFamily", base=base, evidence=evidence)

    for total in range(r + 1):
        candidates = []
        for base in orders:
            for k_len in range(total + 1):
                h_len = total - k_len
                if perturbation_closure(base, k_len, h_len) == order_set:
                    k_sorted = tuple(sorted(base[:k_len]))
                    h_sorted = tuple(sorted(base[r - h_len :]))
                    candidates.append((k_sorted, h_sorted, base, k_len, h_len))
        if candidates:
            k_sorted, h_sorted, base, _, _ = min(candidates)
            return GpwClassification(
                "BoundedPerturbation",
                base=base,
                k_set=k_sorted,
                h_set=h_sorted,
                evidence=evidence,
            )

    # Not empty: a family equal to this closure returned RotationFamily above.
    witness_pool = order_set.symmetric_difference(rotation_closure(orders[0]))
    evidence["witness"] = list(min(witness_pool))
    return GpwClassification("Unmatched", evidence=evidence)


def expand_classification(
    cls: GpwClassification, rest: Sequence[int]
) -> frozenset[tuple[int, ...]]:
    """Re-generate the full order set a classification describes, for
    soundness checking against the family it came from."""
    rest = tuple(sorted(rest))
    if cls.tag == "AllOrders":
        return frozenset(itertools.permutations(rest))
    if cls.tag == "RotationFamily":
        return rotation_closure(cls.base)
    if cls.tag == "BoundedPerturbation":
        return perturbation_closure(cls.base, len(cls.k_set), len(cls.h_set))
    raise DomainError(f"cannot expand classification tagged {cls.tag!r}")
