"""Named invariant suites: exhaustive at small scale, seeded beyond.

``SUITES`` maps each suite name to one function that takes the run's shared
corpora and the suite's own generator, builds its inputs and yields one
outcome per case: ``True`` when it passes, else the failure message.  The
public checks yield outcomes the same way, and ``tally`` alone counts them.
The corpora that several suites read (the small binary corpus, its
reduction-oracle sweep and the enumerated chaining-order families) are built
at most once per ``run_suites`` call.  The public checks are
scope-parameterized, so the acceptance tests rerun them over their own,
larger corpora.  Every dual-route check keeps its two sides separate: the
type-purity chainability decision is compared against full-map enumeration,
branch-and-bound canonical forms against the scan of all relabelings,
structural definition matching against formula evaluation, sentence
evaluation against direct canonical-form comparison, the structural
companion-axiom check against evaluating the companion theory T*.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

from .chainability import (
    ChainWitness,
    age_forms,
    age_representatives,
    check_profile_bound,
    check_trace_isomorphism,
    find_chain_order,
    is_chainable_with,
    kernel,
    profile,
    witness_companion,
)
from .core import (
    Companion,
    Signature,
    Structure,
    companion_as_structure,
    companion_structure,
    induced_substructure,
    reduct,
    structure,
    validate_companion_axioms,
)
from .corpus import (
    RandomSpec,
    all_binary_structures,
    chain_structure,
    cycle_structure,
    fixture_structures,
    generate,
    pentagon_cyclic_order,
    unary_structure,
)
from .errors import DomainError, UnsupportedSizeError
from .formulas import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Rel,
    eval_formula,
)
from .gpw import (
    ChainOrderFamily,
    classify_family,
    enumerate_chaining_orders,
    expand_classification,
)
from .logic import (
    LiteralType,
    apply_definitions,
    check_age_sentence_agreement,
    extract_definitions,
    literal_type,
    make_definition_set,
    quotient_translate,
    star_translate,
    theory_star_sentences,
    verify_definitions,
)
from .morphism import (
    CANONICAL_SIZE_CAP,
    PartialMap,
    _preserves,
    canonical_form,
    enumerate_partial_automorphisms,
    find_isomorphism,
    is_partial_automorphism,
)

VERIFY_CASES_CAP = 5000
"""The largest ``cases`` that ``run_suites`` accepts.  Most suites grow
linearly with it; all 22 take 21–23 s at the cap on a 2-core host."""


# ---------------------------------------------------------------------------
# Shared plumbing


def all_witnesses(m: int) -> list[ChainWitness]:
    """Every (frozen set, complement order) pair for a domain of size m."""
    out = []
    for f_size in range(m + 1):
        for f in itertools.combinations(range(m), f_size):
            rest = [e for e in range(m) if e not in f]
            for order in itertools.permutations(rest):
                out.append(ChainWitness(frozenset(f), order))
    return out


@lru_cache(maxsize=None)
def _chain_maps_full(r: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All partial automorphisms of the r-element chain, by position, taken
    from the generic enumerator.  This is the full-map side of the reduction
    check; the type-purity decision shares no code with it."""
    chain = chain_structure(r)
    return tuple(p.pairs for p in enumerate_partial_automorphisms(chain, max_dom=r))


def chainable_full(y: Structure, w: ChainWitness) -> bool:
    """Chainability by full quantification over every increasing partial
    injection of the complement chain, with no arity bound."""
    rest = w.rest_order
    base = {a: a for a in w.f_set}
    for pairs in _chain_maps_full(len(rest)):
        mapping = dict(base)
        for s, t in pairs:
            mapping[rest[s]] = rest[t]
        if not _preserves(y, mapping):
            return False
    return True


def canonical_form_full(y: Structure) -> bytes:
    """The canonical form by scanning all size! relabelings: the oracle for
    the branch and bound of ``morphism.canonical_form``, with which it shares
    only the encoding.  Uncapped and uncached."""
    best = None
    for perm in itertools.permutations(range(y.size)):
        relabeled = tuple(
            tuple(sorted(tuple(perm[x] for x in t) for t in tuples))
            for tuples in y.relations
        )
        if best is None or relabeled < best:
            best = relabeled
    return repr((y.size, y.sig.symbols, best)).encode("utf-8")


def random_companion(rng: random.Random, m: int, k: int) -> Companion:
    elements = list(range(m))
    rng.shuffle(elements)
    return companion_structure(m, elements[:k], elements[k:])


def random_definition_set(rng: random.Random, x: Companion, sig: Signature):
    entries = []
    for name, arity in sig.symbols:
        realizable = {
            literal_type(x, point)
            for point in itertools.product(range(x.size), repeat=arity)
        }
        pool = sorted(realizable, key=LiteralType.sort_key)
        chosen = [t for t in pool if rng.random() < 0.5]
        entries.append((name, arity, chosen))
    return make_definition_set(entries)


def _generated(rng: random.Random, sig: Signature, k_max: int):
    """A random companion on 1..5 points with at most ``k_max`` marks, random
    definitions over it, and the structure they generate."""
    m = rng.randint(1, 5)
    k = rng.randint(0, min(m, k_max))
    x = random_companion(rng, m, k)
    defs = random_definition_set(rng, x, sig)
    return x, defs, apply_definitions(x, defs, sig)


def random_formula(
    rng: random.Random,
    sig: Signature,
    variables: Sequence[str],
    depth: int,
    quantifiers: int,
) -> Formula:
    """A seeded random formula over ``sig`` with free variables drawn from
    ``variables``, connective depth at most ``depth`` and quantifier depth at
    most ``quantifiers``."""

    def atom() -> Formula:
        if sig.symbols and rng.random() < 0.75:
            name, arity = sig.symbols[rng.randrange(len(sig.symbols))]
            return Rel(name, tuple(rng.choice(variables) for _ in range(arity)))
        return Eq(rng.choice(variables), rng.choice(variables))

    def build(d: int, q: int) -> Formula:
        if d == 0:
            return atom()
        choices = ["atom", "not", "and", "or"]
        if q > 0:
            choices += ["exists", "forall"]
        kind = rng.choice(choices)
        if kind == "atom":
            return atom()
        if kind == "not":
            return Not(build(d - 1, q))
        if kind == "and":
            return And(build(d - 1, q), build(d - 1, q))
        if kind == "or":
            return Or(build(d - 1, q), build(d - 1, q))
        var = rng.choice(variables)
        body = build(d - 1, q - 1)
        return Exists(var, body) if kind == "exists" else Forall(var, body)

    return build(depth, quantifiers)


def small_binary_corpus() -> list[Structure]:
    out = []
    for m in range(4):
        out.extend(all_binary_structures(m))
    return out


def random_structures(
    rng: random.Random, count: int, sizes=(4, 5), symbols=(1, 2), arity=(1, 2)
) -> list[Structure]:
    out = []
    for _ in range(count):
        out.append(
            generate(
                RandomSpec(
                    seed=rng.getrandbits(63),
                    size=rng.choice(sizes),
                    symbols=rng.choice(symbols),
                    arity_min=arity[0],
                    arity_max=arity[1],
                    density=rng.choice((0.15, 0.3, 0.5, 0.7)),
                )
            )
        )
    return out


def _at_most(rng: random.Random, items: list, k: int) -> list:
    """All of ``items``, or k of them drawn at random when there are more."""
    return rng.sample(items, k) if len(items) > k else items


def _nonempty_subsets(n: int) -> list[tuple[int, ...]]:
    return [h for size in range(1, n + 1) for h in itertools.combinations(range(n), size)]


def _sampled_witnesses(
    rng: random.Random, structures: Iterable[Structure], k: int
) -> list[tuple[Structure, ChainWitness]]:
    """Each structure with every witness on its domain, or with k of them
    drawn at random when there are more."""
    return [(y, w) for y in structures for w in _at_most(rng, all_witnesses(y.size), k)]


def _fixture_witnesses() -> list[tuple[Structure, ChainWitness]]:
    """A chaining witness over the first two points of each fixture on at
    most 6 points that has one."""
    pairs = []
    for y in fixture_structures():
        f = frozenset(range(min(2, y.size)))
        order = find_chain_order(y, f) if y.size <= 6 else None
        if order is not None:
            pairs.append((y, ChainWitness(f, order)))
    return pairs


def _subsignatures(sig: Signature) -> list[list[str]]:
    names = list(sig.names)
    out = []
    for r in range(len(names) + 1):
        out.extend(list(keep) for keep in itertools.combinations(names, r))
    return out


def tally(outcomes: Iterable[bool | str]) -> tuple[int, list[str]]:
    """``(cases, failures)`` of a check's outcomes, each True for a case that
    passes and the failure message for one that fails."""
    results = list(outcomes)
    return len(results), [r for r in results if r is not True]


# ---------------------------------------------------------------------------
# Scope-parameterized checks (reused by the acceptance tests)


def reduction_oracle_sweep(
    structures: Iterable[Structure],
) -> tuple[list[bool | str], list[tuple[Structure, ChainWitness]]]:
    """Compare the type-purity chainability decision against the full-map
    oracle on every (frozen set, order) pair of every structure: the
    outcomes, and the chainable pairs for downstream checks."""
    return _decision_sweep((y, w) for y in structures for w in all_witnesses(y.size))


def _decision_sweep(
    pairs: Iterable[tuple[Structure, ChainWitness]],
) -> tuple[list[bool | str], list[tuple[Structure, ChainWitness]]]:
    outcomes, chainable = [], []
    for y, w in pairs:
        decision = is_chainable_with(y, w)
        full = chainable_full(y, w)
        outcomes.append(decision == full or (
            f"decision={decision} full={full} on {y.relations} with "
            f"F={sorted(w.f_set)} order={w.rest_order}"
        ))
        if decision and full:
            chainable.append((y, w))
    return outcomes, chainable


def roundtrip_check(pairs: Iterable[tuple[Structure, ChainWitness]]):
    """Definability round trip on chainable pairs: extraction must succeed,
    applying the definitions must rebuild the structure bit-exactly, and the
    rendered formulas must agree with membership on every tuple."""
    for y, w in pairs:
        x = witness_companion(w)
        try:
            defs = extract_definitions(x, y)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            yield f"extraction failed on chainable pair: {exc}"
            continue
        if apply_definitions(x, defs, y.sig) != y:
            yield f"round trip changed the structure: {y.relations}"
        else:
            yield verify_definitions(x, y, defs) or (
                f"rendered definitions disagree with membership: {y.relations}"
            )


def profile_bound_check(structures: Iterable[Structure]):
    """Kernel size k must bound every profile value by 2**k."""
    for y in structures:
        if y.size == 0:
            continue
        report = kernel(y, y.size)
        if report.min_size is None:
            yield f"no kernel within the domain on {y.relations}"
        else:
            yield check_profile_bound(y, report.min_size, y.size) or (
                f"profile {profile(y, y.size).values} exceeds 2^{report.min_size} "
                f"on {y.relations}"
            )


def trace_check(pairs: Iterable[tuple[Structure, ChainWitness]]):
    """Equal frozen-set traces must give isomorphic substructures, for every
    chainable pair and every substructure size."""
    for y, w in pairs:
        for n in range(1, y.size + 1):
            yield check_trace_isomorphism(y, w, n) or (
                f"trace classes not isomorphic at n={n} on {y.relations} "
                f"with F={sorted(w.f_set)}"
            )


def age_sentence_check(
    structures: Sequence[Structure], rng: random.Random, foreign_fraction: float
):
    """Sentence evaluation must agree with direct age comparison.

    Each structure is tested against its own age representatives for every
    substructure size up to 3 and every sub-signature; a fraction of
    the structures is additionally tested against a foreign family (the ages
    of a reference chain over the same signature), exercising the negative
    branch of the agreement.
    """
    for y in structures:
        for n in range(1, min(3, y.size) + 1):
            families = [age_representatives(y, n)]
            if rng.random() < foreign_fraction and y.sig == Signature((("E", 2),)):
                families.append(age_representatives(chain_structure(max(y.size, n), "E"), n))
            for family in families:
                for keep in _subsignatures(y.sig):
                    yield check_age_sentence_agreement(family, keep, y) or (
                        f"sentence/direct disagreement: n={n} keep={keep} on {y.relations}"
                    )


def star_translation_check(seed: int, cases: int):
    """Evaluating a translated formula on the companion must match evaluating
    the original on the structure the definitions generate."""
    rng = random.Random(seed)
    sig = Signature((("E", 2), ("U", 1)))
    variables = ("x0", "x1", "x2")
    for i in range(cases):
        x, defs, generated = _generated(rng, sig, 3)
        f = random_formula(rng, sig, variables, depth=4, quantifiers=3)
        translated = star_translate(f, defs)
        assignment = {v: rng.randrange(x.size) for v in variables}
        on_companion = eval_formula(translated, companion_as_structure(x), assignment)
        on_structure = eval_formula(f, generated, assignment)
        yield on_companion == on_structure or (
            f"case {i}: companion={on_companion} structure={on_structure} "
            f"m={x.size} k={len(x.constants)} assignment={assignment}"
        )


def reversal_closure_check(
    scope: Iterable[tuple[Structure, frozenset[int]]]
) -> tuple[list[bool | str], list[ChainOrderFamily]]:
    """Enumerate each chaining-order family directly (no family constructor
    involved) and confirm membership is reversal-invariant: the outcomes, and
    the nonempty families that pass."""
    outcomes, families = [], []
    for y, f in scope:
        rest = sorted(set(range(y.size)) - f)
        orders = [
            order
            for order in itertools.permutations(rest)
            if is_chainable_with(y, ChainWitness(f, order))
        ]
        order_set = set(orders)
        bad = [o for o in orders if tuple(reversed(o)) not in order_set]
        outcomes.append(not bad or (
            f"family over F={sorted(f)} on {y.relations} lacks reverses of {bad[:3]}"
        ))
        if orders and not bad:
            families.append(ChainOrderFamily(f, tuple(orders)))
    return outcomes, families


def monomorphic_check():
    """Linear orders on 3 to 7 points must report an empty kernel and a
    profile identically 1."""
    for m in range(3, 8):
        y = chain_structure(m)
        report = kernel(y, 1)
        if report.min_size != 0:
            yield f"chain of size {m} has kernel size {report.min_size}"
            continue
        values = profile(y, min(m, CANONICAL_SIZE_CAP)).values
        yield all(v == 1 for v in values) or f"chain of size {m} has profile {values}"


# ---------------------------------------------------------------------------
# Suite checks: each takes the run's shared corpora and the suite's own
# generator, builds its inputs and yields one outcome per case


def _restriction_composition_check(s: _Shared, rng: random.Random):
    corpus = s.small + fixture_structures() + random_structures(rng, s.cases // 10 + 1)
    for y in corpus:
        for h in _at_most(rng, _nonempty_subsets(y.size), 20):
            inner = induced_substructure(y, h)
            for g in _at_most(rng, _nonempty_subsets(inner.size), 10):
                one_step = induced_substructure(y, [h[i] for i in g])
                yield induced_substructure(inner, g) == one_step or (
                    f"composition mismatch on {y.relations} h={h} g={g}"
                )


def _reduct_commute_check(s: _Shared, rng: random.Random):
    for y in random_structures(rng, max(s.cases // 5, 20), sizes=(3, 4, 5), symbols=(2,)):
        for _ in range(5):
            size = rng.randint(1, y.size)
            h = rng.sample(range(y.size), size)
            for keep in _subsignatures(y.sig):
                a = reduct(induced_substructure(y, h), keep)
                b = induced_substructure(reduct(y, keep), h)
                yield a == b or f"reduct/restrict mismatch on {y.relations}"


def _companion_axioms_check(s: _Shared, rng: random.Random):
    """The structural axiom check must hold exactly when the companion,
    read as a structure, satisfies the sentences of T*.  Only the
    conjunctions compare: the last sentence says "initial segment" only
    together with the mark-order one.  The sentences run last first, so a
    broken mark sentence ends a case before the cubic order sentence.  Of
    every three companions, one stays as drawn (valid), one has its last two
    marks swapped and one its first unmarked element moved in among the
    marks, where it has them."""
    for i in range(max(s.cases, 50)):
        m = rng.randint(0, 6)
        k = rng.randint(0, m)
        x = random_companion(rng, m, k)
        order, marks = list(x.order), list(x.constants)
        if i % 3 == 1 and k >= 2:
            marks[-2:] = marks[-1], marks[-2]
        elif i % 3 == 2 and 0 < k < m:
            order.insert(rng.randrange(k), order.pop(k))
        x = Companion(m, tuple(order), tuple(marks))
        axioms = all(validate_companion_axioms(x))
        xs = companion_as_structure(x)
        sentences = all(eval_formula(t, xs, {}) for t in reversed(theory_star_sentences(k)))
        yield axioms == sentences or f"axioms {axioms}, T* sentences {sentences} on {x}"
    # Hand-built violations must be caught by the right check.
    swapped = Companion(3, (0, 1, 2), (1, 0))
    yield not validate_companion_axioms(swapped)[2] or "mark-order violation not detected"
    stray = Companion(3, (0, 1, 2), (0, 2))
    yield not validate_companion_axioms(stray)[3] or "initial-segment violation not detected"


def _pa_restriction_check(s: _Shared, rng: random.Random):
    for y in fixture_structures() + random_structures(rng, max(s.cases // 20, 5)):
        for p in enumerate_partial_automorphisms(y, min(y.size, 3)):
            for r in range(len(p.pairs)):
                for sub in itertools.combinations(p.pairs, r):
                    yield is_partial_automorphism(y, PartialMap(sub)) or (
                        f"restriction {sub} of {p.pairs} fails on {y.relations}"
                    )


def _pa_reversal_check(s: _Shared, rng: random.Random):
    for r in range(6):
        forward = chain_structure(r)
        backward = structure(
            r, {"lt": [(i, j) for i in range(r) for j in range(r) if i > j]}, [("lt", 2)]
        )
        fwd = {p.pairs for p in enumerate_partial_automorphisms(forward, r)}
        bwd = {p.pairs for p in enumerate_partial_automorphisms(backward, r)}
        yield fwd == bwd or f"chain of size {r}: reversal changes the map set"


def _iso_witness_ok(a: Structure, b: Structure, p: PartialMap) -> bool:
    mapping = dict(p.pairs)
    if sorted(mapping) != list(range(a.size)) or sorted(mapping.values()) != list(range(b.size)):
        return False
    return all(
        frozenset(tuple(mapping[x] for x in t) for t in ra) == rb
        for ra, rb in zip(a.relations, b.relations)
    )


def _iso_canonical_check(s: _Shared, rng: random.Random):
    extra = random_structures(rng, max(s.cases // 10, 10))
    for m in (2, 3):
        reps = [y for y in s.small if y.size == m]
        for a, b in itertools.combinations(reps, 2):
            apart = find_isomorphism(a, b) is None and canonical_form(a) != canonical_form(b)
            yield apart or "distinct representatives look isomorphic"
    for y in s.small + extra:
        if y.size == 0:
            continue
        perm = list(range(y.size))
        rng.shuffle(perm)
        relabeled = Structure(
            y.sig,
            y.size,
            tuple(
                frozenset(tuple(perm[x] for x in t) for t in tuples)
                for tuples in y.relations
            ),
        )
        witness = find_isomorphism(y, relabeled)
        if witness is None or canonical_form(y) != canonical_form(relabeled):
            yield f"relabeling not recognized on {y.relations}"
        elif canonical_form(relabeled) != canonical_form_full(y):
            yield f"search and full-scan forms differ on {y.relations}"
        else:
            yield _iso_witness_ok(y, relabeled, witness) or (
                f"returned witness is not an isomorphism on {y.relations}"
            )


def _reduction_oracle_check(s: _Shared, rng: random.Random):
    """The shared sweep of the small corpus, then witnesses sampled on random
    structures of arity up to 3."""
    structures = random_structures(rng, max(s.cases // 10, 10), arity=(1, 3))
    yield from s.sweep[0]
    yield from _decision_sweep(_sampled_witnesses(rng, structures, 12))[0]


def _witness_reversal_check(s: _Shared, rng: random.Random):
    structures = s.small + random_structures(rng, max(s.cases // 20, 5))
    for y, w in _sampled_witnesses(rng, structures, 30):
        reversed_w = ChainWitness(w.f_set, tuple(reversed(w.rest_order)))
        yield is_chainable_with(y, w) == is_chainable_with(y, reversed_w) or (
            f"reversal changes chainability on {y.relations} F={sorted(w.f_set)}"
        )


def _monotonicity_check(s: _Shared, rng: random.Random):
    # Freezing an interior element of the order can break chainability (an
    # increasing singleton map may jump across the frozen point; the linear
    # order on three points witnesses this), so monotonicity only holds for
    # the endpoints of the witness order.
    for y, w in s.sweep[1]:
        if not w.rest_order:
            continue
        for x in (w.rest_order[0], w.rest_order[-1]):
            grown = ChainWitness(w.f_set | {x}, tuple(e for e in w.rest_order if e != x))
            yield is_chainable_with(y, grown) or (
                f"freezing endpoint {x} breaks chainability on {y.relations}"
            )


def _age_transfer_check(s: _Shared, rng: random.Random):
    kernels = {y: kernel(y, y.size).min_size for y in s.small}
    pairs = [(z, y) for z in s.small for y in s.small if y.size >= z.size > 0]
    # The small corpus shares one signature, so age containment is a
    # comparison of age_forms, each computed once per structure and size.
    ages = lru_cache(maxsize=None)(age_forms)
    for z, y in _at_most(rng, pairs, max(s.cases * 20, 2000)):
        if all(ages(z, n) <= ages(y, n) for n in range(1, z.size + 1)):
            yield kernels[z] <= kernels[y] or (
                f"age containment with kernel {kernels[z]} > {kernels[y]}"
            )


def _definability_roundtrip_check(s: _Shared, rng: random.Random):
    # The round trip on the chainable 3-point pairs, then its converse:
    # structures generated from random definitions are chainable over the
    # defining companion.
    yield from roundtrip_check([(y, w) for y, w in s.sweep[1] if y.size == 3])
    for _ in range(max(s.cases, 100)):
        x, _, y = _generated(rng, Signature((("E", 2), ("U", 1))), 2)
        yield is_chainable_with(y, ChainWitness(frozenset(x.constants), x.rest)) or (
            f"generated structure not chainable over its companion: {y.relations}"
        )


def _quotient_check(s: _Shared, rng: random.Random):
    sig = Signature((("E0", 2), ("E1", 2), ("U0", 1), ("U1", 1)))
    mapping = {"E1": "E0", "U1": "U0"}
    variables = ("x0", "x1")
    for _ in range(max(s.cases, 200)):
        m = rng.randint(1, 5)
        edges = {
            (a, b)
            for a in range(m)
            for b in range(m)
            if rng.random() < 0.4
        }
        marks = {(a,) for a in range(m) if rng.random() < 0.4}
        z = structure(
            m, {"E0": edges, "E1": edges, "U0": marks, "U1": marks}, sig
        )
        reduced = reduct(z, ["E0", "U0"])
        f = random_formula(rng, sig, variables, depth=4, quantifiers=2)
        translated = quotient_translate(f, mapping, sig)
        assignment = {v: rng.randrange(m) for v in variables}
        same = eval_formula(f, z, assignment) == eval_formula(translated, reduced, assignment)
        yield same or f"quotient translation changed truth on {z.relations}"


def _literal_type_partition_check(s: _Shared, rng: random.Random):
    """Type equality must coincide with satisfying the same companion
    literals, on every companion on 1 to 3 points (each permutation split
    into a marked prefix and an ordered rest) and random ones on 4 or 5.
    The fingerprints below read the literals straight off the
    companion-as-structure relations, independent of the type computation.
    The two partitions of the points are equal exactly when pairing each
    point's type with its fingerprint makes no more classes than either."""
    companions = [
        companion_structure(m, perm[:k], perm[k:])
        for m in range(1, 4)
        for perm in itertools.permutations(range(m))
        for k in range(m + 1)
    ]
    for _ in range(max(s.cases // 5, 20)):
        m = rng.randint(4, 5)
        companions.append(random_companion(rng, m, rng.randint(0, min(m, 3))))
    for x in companions:
        xs = companion_as_structure(x)
        order_rel = xs.relation("R")
        marks = [xs.relation(f"U{c}") for c in range(len(x.constants))]
        for arity in (1, 2, 3):

            def fingerprint(t):
                eqs = tuple(t[i] == t[j] for i, j in itertools.combinations(range(arity), 2))
                orders = tuple(
                    (t[i], t[j]) in order_rel
                    for i, j in itertools.permutations(range(arity), 2)
                )
                unary = tuple(
                    (t[i],) in mark for i in range(arity) for mark in marks
                )
                return eqs + orders + unary

            points = list(itertools.product(range(x.size), repeat=arity))
            types = [literal_type(x, p) for p in points]
            prints = [fingerprint(p) for p in points]
            classes = len(set(zip(types, prints)))
            yield classes == len(set(types)) == len(set(prints)) or (
                f"type equality differs from literal satisfaction on {x}"
            )


def _classification_check(s: _Shared, rng: random.Random):
    for fam in s.reversal[1]:
        cls = classify_family(fam)
        if cls.tag == "Unmatched":
            yield f"unmatched family over F={sorted(fam.f_set)}: {fam.sorted_orders()[:4]}"
        else:
            rest = sorted(fam.orders[0]) if fam.orders else []
            yield expand_classification(cls, rest) == frozenset(fam.orders) or (
                f"pattern expansion of {cls.tag} does not rebuild the family"
            )


def _presentation_check(s: _Shared, rng: random.Random):
    for fam in s.reversal[1]:
        shuffled = list(fam.orders)
        rng.shuffle(shuffled)
        same = classify_family(ChainOrderFamily(fam.f_set, tuple(shuffled))) == classify_family(fam)
        yield same or f"classification depends on presentation over F={sorted(fam.f_set)}"


def _named_fixture_check(s: _Shared, rng: random.Random):
    chain_family = enumerate_chaining_orders(chain_structure(5), [])
    chain_class = classify_family(chain_family)
    pentagon_family = enumerate_chaining_orders(pentagon_cyclic_order(), [])
    unary_family = enumerate_chaining_orders(unary_structure(5, [0]), [0])
    yield kernel(cycle_structure(5), 4).min_size == 4 or "five-cycle kernel size is 4"
    yield set(chain_family.orders) == {(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)} or (
        "chain family is {order, reverse}"
    )
    yield (
        chain_class.tag == "BoundedPerturbation"
        and chain_class.k_set == ()
        and chain_class.h_set == ()
    ) or "chain family classified BoundedPerturbation with empty ends"
    yield len(pentagon_family.orders) == 10 or "pentagon family has 10 members"
    yield classify_family(pentagon_family).tag == "RotationFamily" or (
        "pentagon family classified RotationFamily"
    )
    yield len(unary_family.orders) == 24 or "marked-point family has 24 members"
    yield classify_family(unary_family).tag == "AllOrders" or (
        "marked-point family classified AllOrders"
    )


# ---------------------------------------------------------------------------
# Suites


class _Shared:
    """The corpora that several suites read, built at most once per
    ``run_suites`` call and only when a selected suite asks for them.  One
    that draws random numbers takes its own generator, derived from the seed
    and its name, so a suite gets the same inputs alone as in a full run."""

    def __init__(self, seed: int, cases: int):
        self.seed = seed
        self.cases = cases

    @cached_property
    def small(self) -> list[Structure]:
        return small_binary_corpus()

    @cached_property
    def sweep(self) -> tuple[list[bool | str], list[tuple[Structure, ChainWitness]]]:
        return reduction_oracle_sweep(self.small)

    @cached_property
    def reversal(self) -> tuple[list[bool | str], list[ChainOrderFamily]]:
        """The reversal-closure check over every frozen set of the small
        corpus, four named structures over {} and {0}, and random 4- and
        5-point structures over {}."""
        rng = random.Random(f"{self.seed}:reversal-scope")
        scope = [
            (y, frozenset(f))
            for y in self.small
            for f_size in range(y.size + 1)
            for f in itertools.combinations(range(y.size), f_size)
        ]
        for y in (
            chain_structure(5), cycle_structure(5), pentagon_cyclic_order(), unary_structure(5, [0])
        ):
            scope += [(y, frozenset()), (y, frozenset({0}))]
        for y in random_structures(rng, max(self.cases // 20, 10)):
            scope.append((y, frozenset()))
        return reversal_closure_check(scope)


# Each suite, from the shared corpora and its own generator to its outcomes.
SUITES: dict[str, Callable[[_Shared, random.Random], Iterable[bool | str]]] = {
    "core-restriction-composition": _restriction_composition_check,
    "core-reduct-commute": _reduct_commute_check,
    "companion-axioms": _companion_axioms_check,
    "pa-restriction-closure": _pa_restriction_check,
    "pa-reversal-chains": _pa_reversal_check,
    "iso-canonical-agree": _iso_canonical_check,
    "reduction-oracle": _reduction_oracle_check,
    "chain-reversal": _witness_reversal_check,
    "chain-monotonicity": _monotonicity_check,
    "profile-bound": lambda s, rng: profile_bound_check(
        s.small + fixture_structures() + random_structures(rng, max(s.cases // 20, 5))
    ),
    "trace-isomorphism": lambda s, rng: trace_check(s.sweep[1] + _fixture_witnesses()),
    "age-transfer": _age_transfer_check,
    "definability-roundtrip": _definability_roundtrip_check,
    "star-translation": lambda s, rng: star_translation_check(
        rng.getrandbits(32), max(s.cases, 300)
    ),
    "quotient-translation": _quotient_check,
    "age-sentence": lambda s, rng: age_sentence_check(
        [y for y in s.small if y.size in (2, 3)]
        + rng.sample(all_binary_structures(4), min(30, s.cases)),
        rng,
        0.3,
    ),
    "literal-type-partition": _literal_type_partition_check,
    "family-reversal-closure": lambda s, rng: s.reversal[0],
    "classification-soundness": _classification_check,
    "classification-presentation-invariance": _presentation_check,
    "monomorphic-chains": lambda s, rng: monomorphic_check(),
    "named-fixtures": _named_fixture_check,
}


def run_suites(only: str | None = None, seed: int = 0, cases: int = 100) -> list[dict]:
    """Run the registered suites (or just one), each with its own generator
    derived from the seed and its name, over corpora shared within the call,
    and report each suite's ``name``, ``cases``, ``failures``, first five
    failure ``examples`` and ``ok``.  ``cases`` scales the seeded part of
    each suite and must lie in 0..``VERIFY_CASES_CAP``."""
    if only is not None and only not in SUITES:
        raise DomainError(f"unknown suite {only!r}; known: {', '.join(sorted(SUITES))}")
    if cases < 0:
        raise DomainError(f"cases must be at least 0, got {cases}")
    if cases > VERIFY_CASES_CAP:
        raise UnsupportedSizeError(
            f"cases {cases} exceeds verify.VERIFY_CASES_CAP ({VERIFY_CASES_CAP})"
        )
    shared = _Shared(seed, cases)
    reports = []
    for name, check in SUITES.items():
        if only is None or name == only:
            n, failures = tally(check(shared, random.Random(f"{seed}:{name}")))
            reports.append(dict(
                name=name, cases=n, failures=len(failures), examples=failures[:5], ok=not failures
            ))
    return reports
