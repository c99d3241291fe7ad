"""Command-line front end: parse structure/companion files, dispatch
analyses, and emit deterministic JSON reports.

Exit codes: 0 on success, 1 on domain errors (with a structured error object
on stdout), 2 on parse errors (malformed files, formulas, or usage).  All
collections are sorted before emission, so identical inputs and flags always
produce identical bytes.  Each verb imports the modules it runs inside its
handler, so a process loads only what its verb needs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import load_structure
from .errors import ChainlabError, DomainError, ParseError


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"expected a comma-separated list of integers, got {text!r}") from exc


def _name_list(text: str) -> list[str]:
    text = text.strip()
    return [part for part in text.split(",") if part] if text else []


def _arity_bounds(text: str) -> tuple[int, int]:
    try:
        if "-" in text:
            lo, hi = text.split("-", 1)
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError as exc:
        raise ParseError(f"expected an arity like '2' or '1-3', got {text!r}") from exc


def _assignment(text: str) -> dict[str, int]:
    out = {}
    for part in _name_list(text):
        if "=" not in part:
            raise ParseError(f"expected var=value, got {part!r}")
        var, value = part.split("=", 1)
        try:
            out[var] = int(value)
        except ValueError as exc:
            raise ParseError(f"expected an integer value in {part!r}") from exc
    return out


def _emit(doc: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _cmd_check_chain(args) -> dict:
    from .chainability import ChainWitness, is_chainable_with

    y = load_structure(args.structure)
    w = ChainWitness.of(_int_list(args.f), _int_list(args.order))
    return {"chainable": is_chainable_with(y, w)}


def _cmd_find_order(args) -> dict:
    from .chainability import find_chain_order

    y = load_structure(args.structure)
    order = find_chain_order(y, _int_list(args.f))
    return {"order": list(order) if order is not None else None}


def _cmd_kernel(args) -> dict:
    from .chainability import kernel

    y = load_structure(args.structure)
    max_f = y.size if args.max_f is None else args.max_f
    return kernel(y, max_f).to_dict()


def _cmd_profile(args) -> dict:
    from .chainability import profile
    from .morphism import CANONICAL_SIZE_CAP

    y = load_structure(args.structure)
    up_to = min(y.size, CANONICAL_SIZE_CAP) if args.up_to is None else args.up_to
    return profile(y, up_to).to_dict()


def _cmd_age(args) -> dict:
    from .chainability import age_forms, age_subset

    y = load_structure(args.structure)
    if args.within is None:
        forms = age_forms(y, args.n)
        return {"n": args.n, "forms": sorted(form.hex() for form in forms)}
    bigger = load_structure(args.within)
    return {"n": args.n, "age_subset": age_subset(y, bigger, args.n)}


def _cmd_define(args) -> dict:
    from .core import load_companion
    from .formulas import format_formula
    from .logic import extract_definitions, render_literal_type

    y = load_structure(args.structure)
    x = load_companion(args.companion)
    defs = extract_definitions(x, y)
    # One formula per literal-type disjunct keeps the report readable.
    rendered = {
        name: [
            format_formula(render_literal_type(t, [f"v{i}" for i in range(arity)]))
            for t in types
        ]
        for name, arity, types in defs.entries
    }
    return {"definitions": rendered}


def _cmd_star_eval(args) -> dict:
    from .core import companion_as_structure, load_companion
    from .formulas import eval_formula, format_formula, parse_formula
    from .logic import extract_definitions, star_translate

    y = load_structure(args.structure)
    x = load_companion(args.companion)
    f = parse_formula(args.formula)
    defs = extract_definitions(x, y)
    translated = star_translate(f, defs)
    assignment = _assignment(args.assign)
    for var, value in assignment.items():
        if not 0 <= value < y.size:
            raise DomainError(f"--assign {var}={value} lies outside the domain 0..{y.size - 1}")
    object_value = eval_formula(f, y, assignment)
    companion_value = eval_formula(translated, companion_as_structure(x), assignment)
    return {
        "star_formula": format_formula(translated),
        "object_value": object_value,
        "companion_value": companion_value,
        "agree": object_value == companion_value,
    }


def _cmd_age_sentence(args) -> dict:
    from .formulas import format_formula
    from .logic import _age_sentence, _age_sentence_verdict, _validate_family

    family = [load_structure(path) for path in _name_list(args.family)]
    keep_list = _validate_family(family, _name_list(args.keep))
    sentence = _age_sentence(family, keep_list)
    doc = {"formula": format_formula(sentence)}
    if args.eval_on is not None:
        # The one evaluation, after a foreign or oversized y is refused.
        y = load_structure(args.eval_on)
        doc["agree"], doc["value"] = _age_sentence_verdict(family, keep_list, sentence, y)
    return doc


def _cmd_classify_orders(args) -> dict:
    from .gpw import classify_family, enumerate_chaining_orders

    y = load_structure(args.structure)
    family = enumerate_chaining_orders(y, _int_list(args.f))
    doc = family.to_dict()
    doc["class"] = classify_family(family).to_dict()
    return doc


def _cmd_gen(args) -> dict:
    from . import corpus
    from .core import structure_to_dict

    arity_min, arity_max = _arity_bounds(args.arity)
    spec = corpus.RandomSpec(
        seed=args.seed,
        size=args.size,
        symbols=args.symbols,
        arity_min=arity_min,
        arity_max=arity_max,
        density=args.density,
    )
    return structure_to_dict(corpus.generate(spec))


def _cmd_verify(args) -> dict:
    from . import verify

    suites = verify.run_suites(only=args.only, seed=args.seed, cases=args.cases)
    return {"suites": suites, "ok": all(r["ok"] for r in suites)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainlab",
        description="Finite chainability toolkit: decide chaining orders, "
        "kernels, profiles, definability, and order-family shapes.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check-chain", help="decide chainability for one witness")
    p.add_argument("--structure", required=True)
    p.add_argument("--f", default="", help="comma-separated frozen elements")
    p.add_argument("--order", required=True, help="comma-separated complement order")
    p.set_defaults(fn=_cmd_check_chain)

    p = sub.add_parser("find-order", help="search a chaining order over a frozen set")
    p.add_argument("--structure", required=True)
    p.add_argument("--f", default="")
    p.set_defaults(fn=_cmd_find_order)

    p = sub.add_parser("kernel", help="all minimal frozen sets admitting a chaining order")
    p.add_argument("--structure", required=True)
    p.add_argument("--max-f", type=int, default=None, dest="max_f")
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("profile", help="counts of substructure isomorphism types")
    p.add_argument("--structure", required=True)
    p.add_argument("--up-to", type=int, default=None, dest="up_to")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("age", help="substructure types at one size, or age containment")
    p.add_argument("--structure", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--within", default=None, help="check containment in this structure's age")
    p.set_defaults(fn=_cmd_age)

    p = sub.add_parser("define", help="extract quantifier-free definitions over a companion")
    p.add_argument("--structure", required=True)
    p.add_argument("--companion", required=True)
    p.set_defaults(fn=_cmd_define)

    p = sub.add_parser("star-eval", help="evaluate a formula on both sides of the translation")
    p.add_argument("--structure", required=True)
    p.add_argument("--companion", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--assign", default="", help="free-variable assignment, e.g. u=0,v=3")
    p.set_defaults(fn=_cmd_star_eval)

    p = sub.add_parser("age-sentence", help="build (and optionally evaluate) an age sentence")
    p.add_argument("--family", required=True, help="comma-separated structure files")
    p.add_argument("--keep", default="", help="comma-separated kept symbols")
    p.add_argument("--eval-on", default=None, dest="eval_on")
    p.set_defaults(fn=_cmd_age_sentence)

    p = sub.add_parser("classify-orders", help="enumerate and classify the chaining-order family")
    p.add_argument("--structure", required=True)
    p.add_argument("--f", default="")
    p.set_defaults(fn=_cmd_classify_orders)

    p = sub.add_parser("gen", help="deterministic random structure from a seed")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--symbols", type=int, default=1)
    p.add_argument("--arity", default="2", help="fixed arity '2' or bounds '1-3'")
    p.add_argument("--density", type=float, default=0.5)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--only", default=None, help="run a single named suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message; usage errors are parse errors.
        return 2 if exc.code not in (0, None) else 0
    pretty = args.pretty
    try:
        doc = args.fn(args)
    except ParseError as exc:
        _emit(exc.payload(), pretty)
        return 2
    except ChainlabError as exc:
        _emit(exc.payload(), pretty)
        return 1
    _emit(doc, pretty)
    if args.verb == "verify" and not doc["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
