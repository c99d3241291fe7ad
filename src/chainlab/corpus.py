"""Reference structures, seeded random generation, and exhaustive corpora.

The random generator is splitmix64, fixed by name so generated corpora are
reproducible across runs and reimplementations: the 64-bit state advances by
the odd constant 0x9E3779B97F4A7C15 and each output is finalized by two
xor-shift-multiply rounds (0xBF58476D1CE4E5B9, 0x94D049BB133111EB) and a
final 31-bit xor-shift.  A candidate tuple is included when the next output,
read as a fraction of 2**64, falls below the density.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import Structure, structure
from .errors import DomainError, UnsupportedSizeError

_MASK64 = (1 << 64) - 1

GENERATION_SIZE_CAP = 8
GENERATION_ARITY_CAP = 4
GENERATION_SYMBOL_CAP = 6


class SplitMix64:
    """The named 64-bit mixing generator used for reproducible corpora."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n

    def chance(self, probability: float) -> bool:
        return self.next64() < int(probability * 2.0**64)


@dataclass(frozen=True, slots=True)
class RandomSpec:
    """A deterministic recipe for one random structure.

    Identical specs yield byte-identical structures.  Stream consumption
    order: one draw per symbol for its arity (when the bounds differ), then
    one draw per candidate tuple, symbols in signature order and tuples
    lexicographic.
    """

    seed: int
    size: int
    symbols: int = 1
    arity_min: int = 2
    arity_max: int = 2
    density: float = 0.5

    def __post_init__(self):
        if self.size < 0 or self.symbols < 0:
            raise DomainError("size and symbol count must be non-negative")
        if not (1 <= self.arity_min <= self.arity_max):
            raise DomainError("need 1 <= arity_min <= arity_max")
        if not (0.0 <= self.density <= 1.0):
            raise DomainError("density must lie in [0, 1]")
        if self.size > GENERATION_SIZE_CAP:
            raise UnsupportedSizeError(f"generation capped at size {GENERATION_SIZE_CAP}")
        if self.arity_max > GENERATION_ARITY_CAP:
            raise UnsupportedSizeError(f"generation capped at arity {GENERATION_ARITY_CAP}")
        if self.symbols > GENERATION_SYMBOL_CAP:
            raise UnsupportedSizeError(f"generation capped at {GENERATION_SYMBOL_CAP} symbols")


def generate(spec: RandomSpec) -> Structure:
    """The structure determined by ``spec``: each candidate tuple is included
    independently with the given density, driven by splitmix64."""
    rng = SplitMix64(spec.seed)
    names = ["E"] if spec.symbols == 1 else [f"E{i}" for i in range(spec.symbols)]
    arities = []
    for _ in names:
        if spec.arity_min == spec.arity_max:
            arities.append(spec.arity_min)
        else:
            arities.append(spec.arity_min + rng.below(spec.arity_max - spec.arity_min + 1))
    relations = {}
    for name, arity in zip(names, arities):
        tuples = [
            t
            for t in itertools.product(range(spec.size), repeat=arity)
            if rng.chance(spec.density)
        ]
        relations[name] = tuples
    return structure(spec.size, relations, list(zip(names, arities)))


# ---------------------------------------------------------------------------
# Named reference structures


def chain_structure(m: int, name: str = "lt") -> Structure:
    """The linear order 0 < 1 < ... < m-1 as a structure with one binary
    (strict) relation."""
    return structure(
        m, {name: [(i, j) for i in range(m) for j in range(m) if i < j]}, [(name, 2)]
    )


def cycle_structure(m: int) -> Structure:
    """The undirected m-cycle: symmetric edge pairs around the ring."""
    edges = set()
    for i in range(m):
        j = (i + 1) % m
        edges.add((i, j))
        edges.add((j, i))
    return structure(m, {"E": sorted(edges)}, [("E", 2)])


def path_structure(m: int) -> Structure:
    """The undirected path 0 - 1 - ... - m-1."""
    edges = set()
    for i in range(m - 1):
        edges.add((i, i + 1))
        edges.add((i + 1, i))
    return structure(m, {"E": sorted(edges)}, [("E", 2)])


def cyclic_order_structure(m: int) -> Structure:
    """The cyclic order of m points on a circle: the ternary relation of
    distinct triples read clockwise."""
    triples = [
        (a, b, c)
        for a in range(m)
        for b in range(m)
        for c in range(m)
        if len({a, b, c}) == 3 and (b - a) % m < (c - a) % m
    ]
    return structure(m, {"C": triples}, [("C", 3)])


def pentagon_cyclic_order() -> Structure:
    return cyclic_order_structure(5)


def unary_structure(m: int, marked) -> Structure:
    """A pure set with one unary predicate U holding on ``marked``."""
    return structure(m, {"U": [(x,) for x in sorted(set(marked))]}, [("U", 1)])


def empty_relation_structure(m: int) -> Structure:
    return structure(m, {}, [("E", 2)])


# ---------------------------------------------------------------------------
# Exhaustive enumeration of binary structures up to isomorphism


@lru_cache(maxsize=None)
def binary_masks_up_to_iso(m: int) -> tuple[int, ...]:
    """Canonical representatives of all binary relations on m points, one
    mask per isomorphism class, ascending.

    Bit i*m+j of a mask encodes the pair (i, j); relabeling by a permutation
    moves bit i*m+j to perm[i]*m+perm[j], and the class representative is the
    least mask of its orbit.  Masks are scanned in ascending order, so the
    first one not yet seen is the least of its orbit: it is kept, and its m!
    images are marked seen.
    """
    if m > 4:
        raise UnsupportedSizeError("exhaustive binary enumeration capped at size 4")
    n_bits = m * m
    targets = [
        [perm[s // m] * m + perm[s % m] for s in range(n_bits)]
        for perm in itertools.permutations(range(m))
    ]
    seen = bytearray(1 << n_bits)
    reps = []
    for mask in range(1 << n_bits):
        if seen[mask]:
            continue
        reps.append(mask)
        set_bits = [s for s in range(n_bits) if mask >> s & 1]
        for target in targets:
            seen[sum(1 << target[s] for s in set_bits)] = 1
    return tuple(reps)


def structure_from_mask(m: int, mask: int) -> Structure:
    tuples = [(s // m, s % m) for s in range(m * m) if (mask >> s) & 1]
    return structure(m, {"E": tuples}, [("E", 2)])


def all_binary_structures(m: int) -> list[Structure]:
    """All binary structures on m points, one per isomorphism class,
    in canonical mask order."""
    return [structure_from_mask(m, mask) for mask in binary_masks_up_to_iso(m)]


def fixture_structures() -> list[Structure]:
    """The named small structures exercised throughout the test suites."""
    return [
        chain_structure(3),
        chain_structure(5),
        chain_structure(6),
        path_structure(4),
        cycle_structure(4),
        cycle_structure(5),
        pentagon_cyclic_order(),
        unary_structure(5, [2]),
        unary_structure(5, [0]),
        empty_relation_structure(4),
        structure(
            4,
            {"E": [(0, 1), (1, 2), (2, 3)], "U": [(0,)]},
            [("E", 2), ("U", 1)],
        ),
    ]
