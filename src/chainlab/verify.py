"""Named invariant suites: exhaustive at small scale, seeded beyond.

Each suite is a callable ``(rng, cases) -> SuiteResult`` registered in
``SUITES``.  The heavy lifting lives in scope-parameterized check functions
so the acceptance tests can rerun the same checks over their own, larger
corpora.  Every dual-route check keeps its two sides separate: the
type-purity chainability decision is compared against full-map enumeration,
branch-and-bound canonical forms against the scan of all relabelings,
structural definition matching against formula evaluation, sentence
evaluation against direct canonical-form comparison.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .chainability import (
    ChainWitness,
    age_representatives,
    age_subset,
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
from .errors import DomainError
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
    verify_definitions,
)
from .morphism import (
    CANONICAL_SIZE_CAP,
    CanonicalForm,
    PartialMap,
    _preserves,
    canonical_form,
    enumerate_partial_automorphisms,
    find_isomorphism,
    is_partial_automorphism,
)


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": len(self.failures),
            "examples": self.failures[:5],
            "ok": self.ok,
        }


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


def canonical_form_full(y: Structure) -> CanonicalForm:
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
    encoded = repr((y.size, y.sig.symbols, best)).encode("utf-8")
    return CanonicalForm(encoded)


def random_companion(rng: random.Random, m: int, k: int) -> Companion:
    elements = list(range(m))
    rng.shuffle(elements)
    return companion_structure(m, elements[:k], elements[k:])


def realizable_types(x: Companion, arity: int) -> list[LiteralType]:
    pool = {
        literal_type(x, point)
        for point in itertools.product(range(x.size), repeat=arity)
    }
    return sorted(pool, key=LiteralType.sort_key)


def random_definition_set(rng: random.Random, x: Companion, sig: Signature):
    entries = []
    for name, arity in sig.symbols:
        pool = realizable_types(x, arity)
        chosen = [t for t in pool if rng.random() < 0.5]
        entries.append((name, arity, chosen))
    return make_definition_set(entries)


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


def _spread(rng: random.Random) -> int:
    return rng.getrandbits(63)


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
                    seed=_spread(rng),
                    size=rng.choice(sizes),
                    symbols=rng.choice(symbols),
                    arity_min=arity[0],
                    arity_max=arity[1],
                    density=rng.choice((0.15, 0.3, 0.5, 0.7)),
                )
            )
        )
    return out


# ---------------------------------------------------------------------------
# Scope-parameterized checks (reused by the acceptance tests)


@dataclass
class SweepOutcome:
    cases: int
    failures: list[str]
    chainable: list[tuple[Structure, ChainWitness]]


def reduction_oracle_sweep(structures: Iterable[Structure]) -> SweepOutcome:
    """Compare the type-purity chainability decision against the full-map
    oracle on every (frozen set, order) pair of every structure, collecting
    the chainable pairs for downstream checks."""
    cases = 0
    failures: list[str] = []
    chainable: list[tuple[Structure, ChainWitness]] = []
    for y in structures:
        for w in all_witnesses(y.size):
            cases += 1
            decision = is_chainable_with(y, w)
            full = chainable_full(y, w)
            if decision != full:
                failures.append(
                    f"decision={decision} full={full} on {y.relations} with "
                    f"F={sorted(w.f_set)} order={w.rest_order}"
                )
            elif decision:
                chainable.append((y, w))
    return SweepOutcome(cases, failures, chainable)


def roundtrip_check(
    pairs: Iterable[tuple[Structure, ChainWitness]]
) -> tuple[int, list[str]]:
    """Definability round trip on chainable pairs: extraction must succeed,
    applying the definitions must rebuild the structure bit-exactly, and the
    rendered formulas must agree with membership on every tuple."""
    cases = 0
    failures = []
    for y, w in pairs:
        cases += 1
        x = witness_companion(w)
        try:
            defs = extract_definitions(x, y)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            failures.append(f"extraction failed on chainable pair: {exc}")
            continue
        rebuilt = apply_definitions(x, defs, y.sig)
        if rebuilt != y:
            failures.append(f"round trip changed the structure: {y.relations}")
            continue
        if not verify_definitions(x, y, defs):
            failures.append(f"rendered definitions disagree with membership: {y.relations}")
    return cases, failures


def profile_bound_check(structures: Iterable[Structure]) -> tuple[int, list[str]]:
    """Kernel size k must bound every profile value by 2**k."""
    cases = 0
    failures = []
    for y in structures:
        if y.size == 0:
            continue
        cases += 1
        report = kernel(y, y.size)
        if report.min_size is None:
            failures.append(f"no kernel within the domain on {y.relations}")
            continue
        if not check_profile_bound(y, report.min_size, y.size):
            values = profile(y, y.size).values
            failures.append(
                f"profile {values} exceeds 2^{report.min_size} on {y.relations}"
            )
    return cases, failures


def trace_check(
    pairs: Iterable[tuple[Structure, ChainWitness]]
) -> tuple[int, list[str]]:
    """Equal frozen-set traces must give isomorphic substructures, for every
    chainable pair and every substructure size."""
    cases = 0
    failures = []
    for y, w in pairs:
        for n in range(1, y.size + 1):
            cases += 1
            if not check_trace_isomorphism(y, w, n):
                failures.append(
                    f"trace classes not isomorphic at n={n} on {y.relations} "
                    f"with F={sorted(w.f_set)}"
                )
    return cases, failures


def _subsignatures(sig: Signature) -> list[list[str]]:
    names = list(sig.names)
    out = []
    for r in range(len(names) + 1):
        out.extend(list(keep) for keep in itertools.combinations(names, r))
    return out


def age_sentence_check(
    structures: Sequence[Structure],
    rng: random.Random | None = None,
    max_n: int = 3,
    foreign_fraction: float = 0.0,
) -> tuple[int, list[str]]:
    """Sentence evaluation must agree with direct age comparison.

    Each structure is tested against its own age representatives for every
    substructure size up to ``max_n`` and every sub-signature; a fraction of
    the structures is additionally tested against a foreign family (the ages
    of a reference chain over the same signature), exercising the negative
    branch of the agreement.
    """
    cases = 0
    failures = []
    for y in structures:
        for n in range(1, min(max_n, y.size) + 1):
            families = [age_representatives(y, n)]
            if (
                foreign_fraction
                and rng is not None
                and rng.random() < foreign_fraction
                and y.sig == Signature((("E", 2),))
            ):
                families.append(age_representatives(chain_structure(max(y.size, n), "E"), n))
            for family in families:
                for keep in _subsignatures(y.sig):
                    cases += 1
                    if not check_age_sentence_agreement(family, keep, y):
                        failures.append(
                            f"sentence/direct disagreement: n={n} keep={keep} "
                            f"on {y.relations}"
                        )
    return cases, failures


def star_translation_check(seed: int, cases: int) -> tuple[int, list[str]]:
    """Evaluating a translated formula on the companion must match evaluating
    the original on the structure the definitions generate."""
    rng = random.Random(seed)
    sig = Signature((("E", 2), ("U", 1)))
    variables = ("x0", "x1", "x2")
    failures = []
    for i in range(cases):
        m = rng.randint(1, 5)
        k = rng.randint(0, min(m, 3))
        x = random_companion(rng, m, k)
        defs = random_definition_set(rng, x, sig)
        generated = apply_definitions(x, defs, sig)
        f = random_formula(rng, sig, variables, depth=4, quantifiers=3)
        translated = star_translate(f, defs)
        assignment = {v: rng.randrange(m) for v in variables}
        on_companion = eval_formula(translated, companion_as_structure(x), assignment)
        on_structure = eval_formula(f, generated, assignment)
        if on_companion != on_structure:
            failures.append(
                f"case {i}: companion={on_companion} structure={on_structure} "
                f"m={m} k={k} assignment={assignment}"
            )
    return cases, failures


def reversal_closure_check(
    scope: Iterable[tuple[Structure, frozenset[int]]]
) -> tuple[int, list[str], list[ChainOrderFamily]]:
    """Enumerate each chaining-order family directly (no family constructor
    involved) and confirm membership is reversal-invariant."""
    cases = 0
    failures = []
    families = []
    for y, f in scope:
        rest = sorted(set(range(y.size)) - f)
        orders = [
            order
            for order in itertools.permutations(rest)
            if is_chainable_with(y, ChainWitness(f, order))
        ]
        order_set = set(orders)
        cases += 1
        bad = [o for o in orders if tuple(reversed(o)) not in order_set]
        if bad:
            failures.append(
                f"family over F={sorted(f)} on {y.relations} lacks reverses of {bad[:3]}"
            )
        elif orders:
            families.append(ChainOrderFamily(f, tuple(orders)))
    return cases, failures, families


def monomorphic_check(sizes: Iterable[int]) -> tuple[int, list[str]]:
    """Linear orders must report an empty kernel and a profile identically 1."""
    cases = 0
    failures = []
    for m in sizes:
        cases += 1
        y = chain_structure(m)
        report = kernel(y, 1)
        if report.min_size != 0:
            failures.append(f"chain of size {m} has kernel size {report.min_size}")
            continue
        values = profile(y, min(m, CANONICAL_SIZE_CAP)).values
        if any(v != 1 for v in values):
            failures.append(f"chain of size {m} has profile {values}")
    return cases, failures


# ---------------------------------------------------------------------------
# Suites


def _suite_core_restriction_composition(rng, cases) -> SuiteResult:
    result = SuiteResult("core-restriction-composition", 0)
    corpus = small_binary_corpus() + fixture_structures() + random_structures(rng, cases // 10 + 1)
    for y in corpus:
        if y.size == 0:
            continue
        subsets = [
            h
            for size in range(1, y.size + 1)
            for h in itertools.combinations(range(y.size), size)
        ]
        if len(subsets) > 20:
            subsets = rng.sample(subsets, 20)
        for h in subsets:
            inner = induced_substructure(y, h)
            inner_subsets = [
                g
                for size in range(1, inner.size + 1)
                for g in itertools.combinations(range(inner.size), size)
            ]
            if len(inner_subsets) > 10:
                inner_subsets = rng.sample(inner_subsets, 10)
            hs = sorted(h)
            for g in inner_subsets:
                result.cases += 1
                two_step = induced_substructure(inner, g)
                one_step = induced_substructure(y, [hs[i] for i in g])
                if two_step != one_step:
                    result.failures.append(f"composition mismatch on {y.relations} h={h} g={g}")
    return result


def _suite_core_reduct_commute(rng, cases) -> SuiteResult:
    result = SuiteResult("core-reduct-commute", 0)
    corpus = random_structures(rng, max(cases // 5, 20), sizes=(3, 4, 5), symbols=(2,))
    for y in corpus:
        if y.size == 0:
            continue
        for _ in range(5):
            size = rng.randint(1, y.size)
            h = rng.sample(range(y.size), size)
            for keep in _subsignatures(y.sig):
                result.cases += 1
                a = reduct(induced_substructure(y, h), keep)
                b = induced_substructure(reduct(y, keep), h)
                if a != b:
                    result.failures.append(f"reduct/restrict mismatch on {y.relations}")
    return result


def _suite_companion_axioms(rng, cases) -> SuiteResult:
    result = SuiteResult("companion-axioms", 0)
    for _ in range(max(cases, 50)):
        m = rng.randint(0, 6)
        k = rng.randint(0, m)
        x = random_companion(rng, m, k)
        result.cases += 1
        if not all(validate_companion_axioms(x)):
            result.failures.append(f"constructed companion fails axioms: {x}")
    # Hand-built violations must be caught by the right check.
    swapped = Companion(3, (0, 1, 2), (1, 0))
    result.cases += 1
    if validate_companion_axioms(swapped)[2]:
        result.failures.append("mark-order violation not detected")
    stray = Companion(3, (0, 1, 2), (0, 2))
    result.cases += 1
    if validate_companion_axioms(stray)[3]:
        result.failures.append("initial-segment violation not detected")
    return result


def _suite_pa_restriction_closure(rng, cases) -> SuiteResult:
    result = SuiteResult("pa-restriction-closure", 0)
    corpus = fixture_structures() + random_structures(rng, max(cases // 20, 5), sizes=(4, 5))
    for y in corpus:
        for p in enumerate_partial_automorphisms(y, min(y.size, 3)):
            for r in range(len(p.pairs)):
                for sub in itertools.combinations(p.pairs, r):
                    result.cases += 1
                    if not is_partial_automorphism(y, PartialMap(sub)):
                        result.failures.append(
                            f"restriction {sub} of {p.pairs} fails on {y.relations}"
                        )
    return result


def _suite_pa_reversal_chains(rng, cases) -> SuiteResult:
    result = SuiteResult("pa-reversal-chains", 0)
    for r in range(6):
        forward = chain_structure(r)
        backward = structure(
            r, {"lt": [(i, j) for i in range(r) for j in range(r) if i > j]}, [("lt", 2)]
        )
        fwd = {p.pairs for p in enumerate_partial_automorphisms(forward, r)}
        bwd = {p.pairs for p in enumerate_partial_automorphisms(backward, r)}
        result.cases += 1
        if fwd != bwd:
            result.failures.append(f"chain of size {r}: reversal changes the map set")
    return result


def _iso_witness_ok(a: Structure, b: Structure, p: PartialMap) -> bool:
    mapping = dict(p.pairs)
    if sorted(mapping) != list(range(a.size)) or sorted(mapping.values()) != list(range(b.size)):
        return False
    return all(
        frozenset(tuple(mapping[x] for x in t) for t in ra) == rb
        for ra, rb in zip(a.relations, b.relations)
    )


def _suite_iso_canonical_agree(rng, cases) -> SuiteResult:
    result = SuiteResult("iso-canonical-agree", 0)
    for m in (2, 3):
        reps = all_binary_structures(m)
        for a, b in itertools.combinations(reps, 2):
            result.cases += 1
            witness = find_isomorphism(a, b)
            if witness is not None or canonical_form(a) == canonical_form(b):
                result.failures.append("distinct representatives look isomorphic")
    pool = small_binary_corpus() + random_structures(rng, max(cases // 10, 10))
    for y in pool:
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
        result.cases += 1
        witness = find_isomorphism(y, relabeled)
        if witness is None or canonical_form(y) != canonical_form(relabeled):
            result.failures.append(f"relabeling not recognized on {y.relations}")
        elif canonical_form(relabeled) != canonical_form_full(y):
            result.failures.append(f"search and full-scan forms differ on {y.relations}")
        elif not _iso_witness_ok(y, relabeled, witness):
            result.failures.append(f"returned witness is not an isomorphism on {y.relations}")
    return result


def _suite_reduction_oracle(rng, cases) -> SuiteResult:
    outcome = reduction_oracle_sweep(small_binary_corpus())
    extra = random_structures(rng, max(cases // 10, 10), sizes=(4, 5), arity=(1, 3))
    for y in extra:
        witnesses = all_witnesses(y.size)
        for w in rng.sample(witnesses, min(len(witnesses), 12)):
            outcome.cases += 1
            if is_chainable_with(y, w) != chainable_full(y, w):
                outcome.failures.append(
                    f"decision/full disagreement on random {y.relations} F={sorted(w.f_set)}"
                )
    return SuiteResult("reduction-oracle", outcome.cases, outcome.failures)


def _suite_chain_reversal(rng, cases) -> SuiteResult:
    result = SuiteResult("chain-reversal", 0)
    for y in small_binary_corpus() + random_structures(rng, max(cases // 20, 5)):
        witnesses = all_witnesses(y.size)
        if len(witnesses) > 30:
            witnesses = rng.sample(witnesses, 30)
        for w in witnesses:
            result.cases += 1
            reversed_w = ChainWitness(w.f_set, tuple(reversed(w.rest_order)))
            if is_chainable_with(y, w) != is_chainable_with(y, reversed_w):
                result.failures.append(
                    f"reversal changes chainability on {y.relations} F={sorted(w.f_set)}"
                )
    return result


def _suite_chain_monotonicity(rng, cases) -> SuiteResult:
    # Freezing an interior element of the order can break chainability (an
    # increasing singleton map may jump across the frozen point; the linear
    # order on three points witnesses this), so monotonicity only holds for
    # the endpoints of the witness order.
    result = SuiteResult("chain-monotonicity", 0)
    for y in small_binary_corpus():
        for w in all_witnesses(y.size):
            if not w.rest_order or not is_chainable_with(y, w):
                continue
            for x in (w.rest_order[0], w.rest_order[-1]):
                result.cases += 1
                grown = ChainWitness(
                    w.f_set | {x}, tuple(e for e in w.rest_order if e != x)
                )
                if not is_chainable_with(y, grown):
                    result.failures.append(
                        f"freezing endpoint {x} breaks chainability on {y.relations}"
                    )
    return result


def _suite_profile_bound(rng, cases) -> SuiteResult:
    corpus = small_binary_corpus() + fixture_structures()
    corpus += random_structures(rng, max(cases // 20, 5), sizes=(4, 5))
    n, failures = profile_bound_check(corpus)
    return SuiteResult("profile-bound", n, failures)


def _suite_trace_isomorphism(rng, cases) -> SuiteResult:
    outcome = reduction_oracle_sweep(small_binary_corpus())
    pairs = outcome.chainable
    extra = [y for y in fixture_structures() if y.size <= 6]
    for y in extra:
        order = find_chain_order(y, range(min(2, y.size)))
        if order is not None:
            pairs.append((y, ChainWitness(frozenset(range(min(2, y.size))), order)))
    n, failures = trace_check(pairs)
    return SuiteResult("trace-isomorphism", n, failures)


def _suite_age_transfer(rng, cases) -> SuiteResult:
    result = SuiteResult("age-transfer", 0)
    reps = small_binary_corpus()
    kernels = {i: kernel(y, y.size).min_size for i, y in enumerate(reps)}
    pairs = []
    for zi, z in enumerate(reps):
        if z.size == 0:
            continue
        for yi, y in enumerate(reps):
            if y.size >= z.size > 0:
                pairs.append((zi, yi))
    if len(pairs) > max(cases * 20, 2000):
        pairs = rng.sample(pairs, max(cases * 20, 2000))
    for zi, yi in pairs:
        z, y = reps[zi], reps[yi]
        if all(age_subset(z, y, n) for n in range(1, z.size + 1)):
            result.cases += 1
            if kernels[zi] > kernels[yi]:
                result.failures.append(
                    f"age containment with kernel {kernels[zi]} > {kernels[yi]}"
                )
    return result


def _suite_definability_roundtrip(rng, cases) -> SuiteResult:
    outcome = reduction_oracle_sweep(all_binary_structures(3))
    n, failures = roundtrip_check(outcome.chainable)
    result = SuiteResult("definability-roundtrip", n, failures)
    # Converse direction: structures generated from random definitions are
    # chainable over the defining companion.
    sig = Signature((("E", 2), ("U", 1)))
    for _ in range(max(cases, 100)):
        m = rng.randint(1, 5)
        k = rng.randint(0, min(m, 2))
        x = random_companion(rng, m, k)
        defs = random_definition_set(rng, x, sig)
        y = apply_definitions(x, defs, sig)
        w = ChainWitness(frozenset(x.constants), x.rest)
        result.cases += 1
        if not is_chainable_with(y, w):
            result.failures.append(
                f"generated structure not chainable over its companion: {y.relations}"
            )
    return result


def _suite_star_translation(rng, cases) -> SuiteResult:
    n, failures = star_translation_check(seed=rng.getrandbits(32), cases=max(cases, 300))
    return SuiteResult("star-translation", n, failures)


def _suite_quotient_translation(rng, cases) -> SuiteResult:
    result = SuiteResult("quotient-translation", 0)
    sig = Signature((("E0", 2), ("E1", 2), ("U0", 1), ("U1", 1)))
    mapping = {"E1": "E0", "U1": "U0"}
    variables = ("x0", "x1")
    for _ in range(max(cases, 200)):
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
        result.cases += 1
        if eval_formula(f, z, assignment) != eval_formula(translated, reduced, assignment):
            result.failures.append(f"quotient translation changed truth on {z.relations}")
    return result


def _suite_age_sentence(rng, cases) -> SuiteResult:
    corpus = all_binary_structures(2) + all_binary_structures(3)
    sample = rng.sample(all_binary_structures(4), min(30, cases))
    n, failures = age_sentence_check(
        corpus + sample, rng=rng, max_n=3, foreign_fraction=0.3
    )
    return SuiteResult("age-sentence", n, failures)


def _all_companions(m: int) -> list[Companion]:
    """Every companion on m points: each permutation split into a marked
    prefix (in order) and an ordered rest."""
    out = []
    for perm in itertools.permutations(range(m)):
        for k in range(m + 1):
            out.append(companion_structure(m, perm[:k], perm[k:]))
    return out


def _check_literal_type_partition(x: Companion, result: SuiteResult) -> None:
    """Type equality must coincide with satisfying the same companion
    literals; the fingerprints below read the literals straight off the
    companion-as-structure relations, independent of the type computation."""
    xs = companion_as_structure(x)
    order_rel = xs.relation("R")
    marks = [xs.relation(f"U{c}") for c in range(len(x.constants))]
    for arity in (1, 2, 3):
        points = list(itertools.product(range(x.size), repeat=arity))

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

        types = {p: literal_type(x, p) for p in points}
        prints = {p: fingerprint(p) for p in points}
        result.cases += 1
        agree = all(
            (types[p] == types[q]) == (prints[p] == prints[q])
            for p, q in itertools.combinations(points, 2)
        )
        if not agree:
            result.failures.append(
                f"type equality differs from literal satisfaction on {x}"
            )
        if len(set(types.values())) != len(set(prints.values())):
            result.failures.append(f"class count mismatch on {x}")


def _suite_literal_type_partition(rng, cases) -> SuiteResult:
    result = SuiteResult("literal-type-partition", 0)
    for m in range(1, 4):
        for x in _all_companions(m):
            _check_literal_type_partition(x, result)
    for _ in range(max(cases // 5, 20)):
        m = rng.randint(4, 5)
        x = random_companion(rng, m, rng.randint(0, min(m, 3)))
        _check_literal_type_partition(x, result)
    return result


def _reversal_scope(rng, cases) -> list[tuple[Structure, frozenset[int]]]:
    scope: list[tuple[Structure, frozenset[int]]] = []
    for y in small_binary_corpus():
        for f_size in range(y.size + 1):
            for f in itertools.combinations(range(y.size), f_size):
                scope.append((y, frozenset(f)))
    for y in [chain_structure(5), cycle_structure(5), pentagon_cyclic_order(), unary_structure(5, [0])]:
        scope.append((y, frozenset()))
        scope.append((y, frozenset({0})))
    for y in random_structures(rng, max(cases // 20, 10), sizes=(4, 5)):
        scope.append((y, frozenset()))
    return scope


def _suite_family_reversal(rng, cases) -> SuiteResult:
    n, failures, _ = reversal_closure_check(_reversal_scope(rng, cases))
    return SuiteResult("family-reversal-closure", n, failures)


def _suite_classification_soundness(rng, cases) -> SuiteResult:
    result = SuiteResult("classification-soundness", 0)
    _, _, families = reversal_closure_check(_reversal_scope(rng, cases))
    for fam in families:
        result.cases += 1
        cls = classify_family(fam)
        if cls.tag == "Unmatched":
            result.failures.append(
                f"unmatched family over F={sorted(fam.f_set)}: {fam.sorted_orders()[:4]}"
            )
            continue
        rest = sorted(fam.orders[0]) if fam.orders else []
        if expand_classification(cls, rest) != frozenset(fam.orders):
            result.failures.append(
                f"pattern expansion of {cls.tag} does not rebuild the family"
            )
    return result


def _suite_classification_invariance(rng, cases) -> SuiteResult:
    result = SuiteResult("classification-presentation-invariance", 0)
    _, _, families = reversal_closure_check(_reversal_scope(rng, min(cases, 40)))
    for fam in families:
        shuffled = list(fam.orders)
        rng.shuffle(shuffled)
        result.cases += 1
        if classify_family(ChainOrderFamily(fam.f_set, tuple(shuffled))) != classify_family(fam):
            result.failures.append(f"classification depends on presentation over F={sorted(fam.f_set)}")
    return result


def _suite_monomorphic_chains(rng, cases) -> SuiteResult:
    n, failures = monomorphic_check(range(3, 8))
    return SuiteResult("monomorphic-chains", n, failures)


def _suite_named_fixtures(rng, cases) -> SuiteResult:
    result = SuiteResult("named-fixtures", 0)

    def expect(label: str, ok: bool):
        result.cases += 1
        if not ok:
            result.failures.append(label)

    expect("five-cycle kernel size is 4", kernel(cycle_structure(5), 4).min_size == 4)
    chain_family = enumerate_chaining_orders(chain_structure(5), [])
    expect(
        "chain family is {order, reverse}",
        set(chain_family.orders) == {(0, 1, 2, 3, 4), (4, 3, 2, 1, 0)},
    )
    expect(
        "chain family classified BoundedPerturbation with empty ends",
        classify_family(chain_family).tag == "BoundedPerturbation"
        and classify_family(chain_family).k_set == ()
        and classify_family(chain_family).h_set == (),
    )
    pentagon_family = enumerate_chaining_orders(pentagon_cyclic_order(), [])
    expect("pentagon family has 10 members", len(pentagon_family.orders) == 10)
    expect(
        "pentagon family classified RotationFamily",
        classify_family(pentagon_family).tag == "RotationFamily",
    )
    unary_family = enumerate_chaining_orders(unary_structure(5, [0]), [0])
    expect("marked-point family has 24 members", len(unary_family.orders) == 24)
    expect(
        "marked-point family classified AllOrders",
        classify_family(unary_family).tag == "AllOrders",
    )
    return result


SUITES: dict[str, Callable[[random.Random, int], SuiteResult]] = {
    "core-restriction-composition": _suite_core_restriction_composition,
    "core-reduct-commute": _suite_core_reduct_commute,
    "companion-axioms": _suite_companion_axioms,
    "pa-restriction-closure": _suite_pa_restriction_closure,
    "pa-reversal-chains": _suite_pa_reversal_chains,
    "iso-canonical-agree": _suite_iso_canonical_agree,
    "reduction-oracle": _suite_reduction_oracle,
    "chain-reversal": _suite_chain_reversal,
    "chain-monotonicity": _suite_chain_monotonicity,
    "profile-bound": _suite_profile_bound,
    "trace-isomorphism": _suite_trace_isomorphism,
    "age-transfer": _suite_age_transfer,
    "definability-roundtrip": _suite_definability_roundtrip,
    "star-translation": _suite_star_translation,
    "quotient-translation": _suite_quotient_translation,
    "age-sentence": _suite_age_sentence,
    "literal-type-partition": _suite_literal_type_partition,
    "family-reversal-closure": _suite_family_reversal,
    "classification-soundness": _suite_classification_soundness,
    "classification-presentation-invariance": _suite_classification_invariance,
    "monomorphic-chains": _suite_monomorphic_chains,
    "named-fixtures": _suite_named_fixtures,
}


def run_suites(
    only: str | None = None, seed: int = 0, cases: int = 100
) -> list[SuiteResult]:
    """Run the registered suites (or just one), each with its own
    deterministically derived generator."""
    if only is not None and only not in SUITES:
        raise DomainError(
            f"unknown suite {only!r}; known: {', '.join(sorted(SUITES))}"
        )
    results = []
    for name, fn in SUITES.items():
        if only is not None and name != only:
            continue
        rng = random.Random(f"{seed}:{name}")
        results.append(fn(rng, cases))
    return results
