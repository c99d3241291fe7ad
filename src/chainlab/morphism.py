"""Partial maps, local automorphisms, isomorphism search, canonical forms.

A partial automorphism (also called a local automorphism) is a finite
injective partial map on the domain that preserves every relation in both
directions on the tuples it can see.  Isomorphism search and partial
automorphisms are exhaustive.  Canonical forms are exact, found by branch and
bound over ordered partitions, for structures of bounded size; the exhaustive
scan they replace is ``verify.canonical_form_full``.  A form is the UTF-8
bytes of ``repr((size, symbols, relations))``, the relations being the least
relabeled ones, so forms compare, hash and ``.hex()`` as ``bytes``.  Forms are
cached by ``core._subset_key``, the type chainability compares too; ``core``
writes keys and decodes them (``core._members``), and this module reads them
only through that decoder.
``canonical_form`` and ``substructure_forms`` both key a subset's elements in
an isomorphism-invariant order (``_subset_form``), so isomorphic subsets and
relabeled copies mostly share one entry.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache
from typing import Iterator

from .core import CACHE_SIZE, SHARED_WORDS_CAP, Record, Signature, Structure, _members, _subset_key
from .errors import DomainError, UnsupportedSizeError

CANONICAL_SIZE_CAP = 8
# Most n-subsets one substructure_forms call keys (math.comb(size, n)).
SUBSET_BUDGET = 10**6


class PartialMap(Record, namedtuple("PartialMap", "pairs")):
    """A finite injective partial function, stored as source-sorted pairs."""

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...]):
        sources = [s for s, _ in pairs]
        targets = [t for _, t in pairs]
        if len(set(sources)) != len(sources):
            raise DomainError("partial map has a repeated source")
        if len(set(targets)) != len(targets):
            raise DomainError("partial map has a repeated target (not injective)")
        return tuple.__new__(cls, (tuple(sorted(pairs)),))

    @staticmethod
    def of(mapping: dict[int, int] | list[tuple[int, int]]) -> "PartialMap":
        items = mapping.items() if isinstance(mapping, dict) else mapping
        return PartialMap(tuple(sorted((int(s), int(t)) for s, t in items)))


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
    if max_dom < 0:
        raise DomainError("max_dom must be non-negative")
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


def canonical_form(y: Structure) -> bytes:
    """The least, over all relabelings of the domain, of the relabeled
    relations (each a sorted tuple list, in signature order), encoded with the
    size and the signature.

    Found by branch and bound over ordered partitions (``_least_relabeling``);
    ``verify.canonical_form_full`` is the scan of all size! relabelings it
    replaces.  The size is capped at CANONICAL_SIZE_CAP; larger inputs raise
    UnsupportedSizeError.
    """
    _check_form_size(y.size)
    return _subset_form(y.sig, y.size, _subset_key(y.sig, y.relations, range(y.size)))


def _check_form_size(n: int) -> None:
    if n > CANONICAL_SIZE_CAP:
        raise UnsupportedSizeError(
            f"canonical_form is exhaustive and capped at size {CANONICAL_SIZE_CAP}; got {n}"
        )


@lru_cache(maxsize=CACHE_SIZE)
def _subset_form(sig: Signature, n: int, key: tuple) -> bytes:
    """The form of the substructure whose plain key is ``key``, looked up
    under its invariant key: the ``core._subset_key`` with the labels in
    descending order of the count of members holding them, per relation and
    argument position, ties in label order.

    Any order gives an isomorphic copy, so the same form; counts do not
    change under relabeling, so isomorphic subsets mostly get one key.  The
    counts come from the members, never from a scan of all words past
    SHARED_WORDS_CAP."""
    members = _members(sig, n, key)
    # One column per relation and argument position; an empty relation has
    # none, which ties every label alike.
    columns = [column.count for tuples in members for column in zip(*tuples)]
    order = sorted(range(n), key=lambda j: [count(j) for count in columns], reverse=True)
    if order != list(range(n)):
        key = _subset_key(sig, list(map(frozenset, members)), order)
    return _canonical_form_cached(sig, n, key)


@lru_cache(maxsize=CACHE_SIZE)
def _canonical_form_cached(sig: Signature, n: int, key: tuple) -> bytes:
    best = _least_relabeling(sig, n, _members(sig, n, key))
    return repr((n, sig.symbols, best)).encode("utf-8")


def _least_relabeling(
    sig: Signature, n: int, relations: list[list[tuple[int, ...]]]
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The least relabeled relations over all relabelings of range(n).

    A relabeling keeps each relation's size, so comparing sorted tuple lists
    is comparing membership bits over all label words in lex order
    (relations in signature order): at the first word where they differ, the
    side where it is present is smaller.  The least relabeling thus has the
    greatest bit string.  A row is a relation and a prefix of arity - 1
    labels; its bits run over the last label, and rows come in string order.

    The state is the labels handed out so far plus an ordered partition of
    the other elements into cells, cell by cell the next label ranges.  A row
    whose prefix names an unassigned label branches: each element of the
    first cell in turn takes the next label, skipping one whose transposition
    with an element already tried is an automorphism (its subtree is the
    image of the other's).  Otherwise each cell splits into the row's members,
    placed first, and the rest, which fixes the row's bits, keeps the earlier
    rows' and leaves no better choice.  A branch whose bits fall below the
    best leaf's is cut.  A leaf is reached when every cell is a single
    element, or when the rows run out and every cell is uniform (any order
    inside it gives the same string); leaves compare by each relation's sorted
    word indices (a word's place in lex order), which is comparing the bits of
    the rows not yet read, and only the winner is relabeled.  This is
    individualization and refinement (McKay and Piperno, "Practical graph
    isomorphism, II", 2014) aimed at the least encoding.  The order in which
    ``relations`` lists the elements changes only the search's speed, never
    its result.
    """
    sets = [frozenset(tuples) for tuples in relations]
    by_prefix: list[dict[tuple[int, ...], int]] = []  # prefix -> bit mask of last elements
    for tuples in relations:
        table: dict[tuple[int, ...], int] = {}
        for t in tuples:
            table[t[:-1]] = table.get(t[:-1], 0) | 1 << t[-1]
        by_prefix.append(table)
    # Rows are listed as far as the search reads them: a leaf comes within
    # n rows of the first relation of arity 2 or more.
    total = sum(n ** (arity - 1) for _, arity in sig.symbols)
    row_source = (
        (r, prefix, max(prefix, default=-1))
        for r, (_, arity) in enumerate(sig.symbols)
        for prefix in itertools.product(range(n), repeat=arity - 1)
    )
    rows: list[tuple[int, tuple[int, ...], int]] = []
    best = None  # the least leaf key found so far
    best_labeling: list[int] = []
    best_rows: dict[int, int] = {}  # row bits of best_labeling, as read
    twin_memo: dict[tuple[int, int], bool] = {}

    def refine(i: int, labeled: list[int], cells: list[list[int]]):
        """Row i's bits (as an int, label 0 highest) and the cells split by
        its members, members first."""
        r, prefix, _ = rows[i]
        row = by_prefix[r].get(tuple(labeled[l] for l in prefix), 0)
        bits = 0
        for x in labeled:
            bits = bits << 1 | (row >> x & 1)
        split = []
        for cell in cells:
            inside = [x for x in cell if row >> x & 1]
            k, s = len(inside), len(cell)
            bits = bits << s | ((1 << k) - 1) << (s - k)
            if 0 < k < s:
                split += [inside, [x for x in cell if not row >> x & 1]]
            else:
                split.append(cell)
        return bits, split

    def twins(d: int, e: int) -> bool:
        if (d, e) not in twin_memo:
            swap = {d: e, e: d}
            twin_memo[d, e] = all(
                tuple(swap.get(x, x) for x in t) in tuples
                for tuples in sets
                for t in tuples
                if d in t or e in t
            )
        return twin_memo[d, e]

    def search(i: int, labeled: list[int], cells: list[list[int]], ahead: bool) -> None:
        # ``ahead``: the path's bits already beat the best leaf's on an
        # earlier row, so no later row needs comparing.
        nonlocal best, best_labeling
        while len(cells) < n - len(labeled) and i < total:
            if len(rows) == i:
                rows.append(next(row_source))
            if rows[i][2] >= len(labeled):
                first, rest = cells[0], cells[1:]
                tried: list[int] = []
                for e in first:
                    if any(twins(d, e) for d in tried):
                        continue
                    tried.append(e)
                    others = [x for x in first if x != e]
                    before = best
                    search(i, labeled + [e], ([others] if others else []) + rest, ahead)
                    if best is not before:
                        ahead = False  # the new best leaf shares this path
                return
            bits, cells = refine(i, labeled, cells)
            if not ahead and best is not None:
                if i not in best_rows:
                    best_rows[i] = refine(i, best_labeling, [])[0]
                if bits < best_rows[i]:
                    return
                ahead = bits > best_rows[i]
            i += 1
        labeling = labeled + [x for cell in cells for x in cell]
        pos = sorted(range(n), key=labeling.__getitem__)  # inverse: each element's label
        key = []  # each relation's sorted word indices under labeling
        for tuples in relations:
            indices = []
            for t in tuples:
                k = 0
                for x in t:
                    k = k * n + pos[x]
                indices.append(k)
            key.append(sorted(indices))
        if best is None or key < best:
            best, best_labeling = key, labeling
            best_rows.clear()

    search(0, [], [list(range(n))] if n else [], False)
    return tuple(tuple(sorted(tuple(map(best_labeling.index, t)) for t in ts)) for ts in relations)


def substructure_forms(y: Structure, n: int) -> dict[tuple[int, ...], bytes]:
    """The canonical form of every n-element induced substructure, keyed by
    the subset, in ``itertools.combinations`` order: the isomorphism type of
    each n-subset, shared by profiles, ages and trace checks.  Each type is
    read off ``y`` (``core._subset_key``); no substructure is built.  Forms are
    cached under invariant keys (``_subset_form``), so isomorphic subsets
    mostly share one entry, behind a cache of plain keys, so a repeated
    subset is not relabeled again.  The forms' tuple is memoised per (structure,
    n) up to SHARED_WORDS_CAP subsets, each call getting a fresh dict.  Raises
    DomainError for n < 1, and UnsupportedSizeError for CANONICAL_SIZE_CAP < n
    <= size or for more than SUBSET_BUDGET subsets; a larger n has no subsets."""
    if n < 1:
        raise DomainError(f"substructure size must be positive; got {n}")
    if n > y.size:
        return {}
    _check_form_size(n)
    count = math.comb(y.size, n)
    if count > SUBSET_BUDGET:
        raise UnsupportedSizeError(
            f"substructure forms are capped at {SUBSET_BUDGET} subsets; "
            f"a domain of size {y.size} has more of size {n}"
        )
    listing = _listed_forms if count <= SHARED_WORDS_CAP else _listed_forms.__wrapped__
    return dict(zip(itertools.combinations(range(y.size), n), listing(y, n)))


@lru_cache(maxsize=CACHE_SIZE)
def _listed_forms(y: Structure, n: int) -> tuple[bytes, ...]:
    """The forms of ``substructure_forms(y, n)``, in subset order."""
    keys = (_subset_key(y.sig, y.relations, h) for h in itertools.combinations(range(y.size), n))
    return tuple(_subset_form(y.sig, n, key) for key in keys)
