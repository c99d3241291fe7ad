"""First-order formula trees over relational signatures, plus a textual
syntax with a bit-exact parse/print round trip.

Grammar (prefix keywords, whitespace-separated):

    (= v0 v1)          variable equality
    (rel E v0 v1)      relational atom, symbol first
    (not f)            negation
    (and f g)          binary conjunction
    (or f g)           binary disjunction
    (exists v f)       existential quantification
    (forall v f)       universal quantification

In the tree, ``And`` and ``Or`` are n-ary: one node holds a whole chain as a
tuple of two or more parts.  A leading part of the same connective is spliced
in, so ``And(And(a, b), c)``, ``and_all([a, b, c])`` and the parse of
``(and (and a b) c)`` are one value; right-nested input stays nested.  The text
stays binary: a chain prints as its left-deep nesting.  Formulas over a
companion use the reserved symbol names "R" and "U0", "U1", ...
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from typing import Callable, Iterable, Union

from .core import Record, Structure
from .errors import FormulaError, ParseError

Formula = Union["Eq", "Rel", "Not", "And", "Or", "Exists", "Forall"]

# Deepest nesting of formula nodes parse_formula accepts, leaf included: the
# parser and the tree walks recurse once per level, and a cap well below the
# interpreter's recursion limit turns deep input into a ParseError.
FORMULA_DEPTH_CAP = 500


class Eq(Record, namedtuple("Eq", "left right")):
    __slots__ = ()


class Rel(Record, namedtuple("Rel", "symbol args")):
    __slots__ = ()


class Not(Record, namedtuple("Not", "body")):
    __slots__ = ()


class _Chain(Record):
    """The constructor of the n-ary connectives: ``cls(*parts)`` holds the
    parts, with a leading ``cls`` node spliced in."""

    __slots__ = ()

    def __new__(cls, *parts: Formula):
        if len(parts) < 2:
            raise FormulaError(f"{cls.__name__} needs at least two parts, got {len(parts)}")
        if type(parts[0]) is cls:
            parts = parts[0].parts + parts[1:]
        return tuple.__new__(cls, (parts,))

    def __getnewargs__(self):
        return self.parts


class And(_Chain, namedtuple("And", "parts")):
    __slots__ = ()


class Or(_Chain, namedtuple("Or", "parts")):
    __slots__ = ()


class Exists(Record, namedtuple("Exists", "var body")):
    __slots__ = ()


class Forall(Record, namedtuple("Forall", "var body")):
    __slots__ = ()


def and_all(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        raise FormulaError("empty conjunction has no rendering")
    return And(*parts) if len(parts) > 1 else parts[0]


def or_all(parts: Iterable[Formula]) -> Formula:
    parts = tuple(parts)
    if not parts:
        raise FormulaError("empty disjunction has no rendering")
    return Or(*parts) if len(parts) > 1 else parts[0]


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    return Or(Not(antecedent), consequent)


def falsum(var: str) -> Formula:
    """An always-false quantifier-free formula mentioning only ``var``."""
    return Not(Eq(var, var))


def map_atoms(f: Formula, fn: Callable[[Rel], Formula]) -> Formula:
    """Rebuild the tree with every relational atom replaced by ``fn(atom)``;
    equalities, connectives and quantifiers stay as they are."""
    if isinstance(f, Eq):
        return f
    if isinstance(f, Rel):
        return fn(f)
    if isinstance(f, Not):
        return Not(map_atoms(f.body, fn))
    if isinstance(f, (And, Or)):
        return type(f)(*(map_atoms(g, fn) for g in f.parts))
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, map_atoms(f.body, fn))
    raise FormulaError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Evaluation

_UNBOUND = object()  # a quantified variable's outer binding, when it has none


def eval_formula(f: Formula, y: Structure, assignment: dict[str, int]) -> bool:
    """Standard satisfaction over the finite domain; quantifiers iterate the
    whole domain.  Unbound free variables and unknown or misused relation
    symbols raise FormulaError.

    This direct recursion is the trusted oracle for every other evaluation
    path, so it stays deliberately unclever.
    """
    tables = {
        name: (arity, y.relations[i])
        for i, (name, arity) in enumerate(y.sig.symbols)
    }
    env = dict(assignment)  # private, so a raise may leave it half-rebound

    def run(node: Formula) -> bool:
        kind = type(node)
        if kind is Eq:
            return env[node.left] == env[node.right]
        if kind is Rel:
            entry = tables.get(node.symbol)
            if entry is None:
                raise FormulaError(f"unknown relation symbol {node.symbol!r}")
            arity, tuples = entry
            if arity != len(node.args):
                raise FormulaError(
                    f"atom {node.symbol!r} has {len(node.args)} arguments, arity is {arity}"
                )
            return tuple(env[a] for a in node.args) in tuples
        if kind is Not:
            return not run(node.body)
        if kind is And or kind is Or:
            return (all if kind is And else any)(map(run, node.parts))
        if kind is Exists or kind is Forall:
            existential = kind is Exists
            var = node.var
            outer = env.get(var, _UNBOUND)
            result = not existential
            for value in range(y.size):
                env[var] = value
                if run(node.body) == existential:
                    result = existential
                    break
            if outer is _UNBOUND:
                env.pop(var, None)
            else:
                env[var] = outer
            return result
        raise FormulaError(f"not a formula node: {node!r}")

    try:
        return run(f)
    except KeyError as exc:
        raise FormulaError(f"unbound variable {exc.args[0]!r}") from exc


# ---------------------------------------------------------------------------
# Textual syntax


def format_formula(f: Formula) -> str:
    if isinstance(f, Eq):
        return f"(= {f.left} {f.right})"
    if isinstance(f, Rel):
        return "(rel " + " ".join((f.symbol, *f.args)) + ")"
    if isinstance(f, Not):
        return f"(not {format_formula(f.body)})"
    if isinstance(f, (And, Or)):
        first, *more = map(format_formula, f.parts)
        keyword = "(and " if isinstance(f, And) else "(or "
        return keyword * len(more) + first + "".join(f" {g})" for g in more)
    if isinstance(f, Exists):
        return f"(exists {f.var} {format_formula(f.body)})"
    if isinstance(f, Forall):
        return f"(forall {f.var} {format_formula(f.body)})"
    raise FormulaError(f"not a formula node: {f!r}")


def _tokenize(text: str) -> list[str]:
    return re.findall(r"[()]|[^\s()]+", text)


def parse_formula(text: str) -> Formula:
    tokens = _tokenize(text)
    pos = 0

    def expect(token: str) -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != token:
            got = tokens[pos] if pos < len(tokens) else "end of input"
            raise ParseError(f"expected {token!r}, got {got!r}")
        pos += 1

    def atom() -> str:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] in "()":
            got = tokens[pos] if pos < len(tokens) else "end of input"
            raise ParseError(f"expected a name, got {got!r}")
        token = tokens[pos]
        pos += 1
        return token

    def expr(depth: int) -> Formula:
        nonlocal pos
        if depth > FORMULA_DEPTH_CAP:
            raise ParseError(f"formula nests deeper than {FORMULA_DEPTH_CAP} levels")
        expect("(")
        head = atom()
        if head == "=":
            node: Formula = Eq(atom(), atom())
        elif head == "rel":
            symbol = atom()
            args = []
            while pos < len(tokens) and tokens[pos] != ")":
                args.append(atom())
            if not args:
                raise ParseError(f"relational atom {symbol!r} needs arguments")
            node = Rel(symbol, tuple(args))
        elif head == "not":
            node = Not(expr(depth + 1))
        elif head in ("and", "or"):
            # A printed n-part chain opens with n - 1 heads of its kind: read
            # them in one go, so the chain is one node, one level deep.
            inner = 0
            while tokens[pos : pos + 2] == ["(", head]:
                pos += 2
                inner += 1
            parts = [expr(depth + 1)]
            for _ in range(inner):
                parts.append(expr(depth + 1))
                expect(")")
            node = (And if head == "and" else Or)(*parts, expr(depth + 1))
        elif head == "exists":
            node = Exists(atom(), expr(depth + 1))
        elif head == "forall":
            node = Forall(atom(), expr(depth + 1))
        else:
            raise ParseError(f"unknown formula keyword {head!r}")
        expect(")")
        return node

    node = expr(1)
    if pos != len(tokens):
        raise ParseError(f"trailing input after formula: {tokens[pos]!r}")
    return node


def distinctness(variables: list[str]) -> Formula | None:
    """Pairwise inequality of the variables; None when fewer than two."""
    pairs = [
        Not(Eq(a, b)) for a, b in itertools.combinations(variables, 2)
    ]
    return and_all(pairs) if pairs else None
