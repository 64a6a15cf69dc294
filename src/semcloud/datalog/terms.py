"""Term and rule structures for the non-recursive Datalog dialect.

The dialect covers exactly what the configuration rules need: positive body
atoms, arithmetic over 64-bit floats, comparisons, variable bindings
(``x = expr``), external calls (``@name(args)``) and the three aggregates
#max / #min / #avg in term-list or comprehension form, with nesting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

from .errors import ProgramRecursionError

AGGREGATE_KINDS = ("max", "min", "avg")

_BARE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Const:
    value: Union[float, str]


@dataclass(frozen=True)
class Var:
    """A variable.  The parser gives each ``_`` a name of its own, ``_#``
    and a number, which no identifier can spell."""

    name: str

    @property
    def is_anonymous(self) -> bool:
        return self.name.startswith("_")

    @property
    def text(self) -> str:
        """The variable as written: ``_`` for an anonymous one."""
        return self.name.partition("#")[0]


@dataclass(frozen=True)
class Arith:
    op: str  # one of + - * /
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class ExternalCall:
    name: str  # without the leading '@'
    args: tuple


@dataclass(frozen=True)
class Aggregate:
    kind: str  # max | min | avg
    elements: tuple = ()  # term-list form: #max{a, b}
    expr: "Term" = None  # comprehension form: #avg{expr : cond}
    condition: tuple = ()  # condition atoms of the comprehension

    @property
    def is_comprehension(self) -> bool:
        return self.expr is not None


Term = Union[Const, Var, Arith, ExternalCall, Aggregate]


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple

    @property
    def arity(self) -> int:
        return len(self.args)


@dataclass(frozen=True)
class Comparison:
    op: str
    left: Term
    right: Term


@dataclass(frozen=True)
class Binding:
    var: Var
    expr: Term


BodyElement = Union[Atom, Comparison, Binding]


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple


@dataclass(frozen=True)
class Program:
    """Rules plus the schedule ``evaluate`` follows: each external call's
    ``(name, arity)`` in first-call order, and one compiled
    ``engine.RulePlan`` per rule, in ``rule_order``.
    ``engine.build_program`` is the only constructor, and it rejects an
    unsafe rule; the plans follow from the rules and take no part in
    equality."""

    rules: tuple
    calls: tuple
    plans: tuple = field(compare=False, repr=False)


def walk(node):
    """Yield a node and every node below it, depth first.

    A node is a term, an atom or a body element.  The walk descends into
    Arith operands, ExternalCall and Atom args, Aggregate elements and expr,
    comprehension condition atoms, and both sides of comparisons and bindings.
    """
    yield node
    if isinstance(node, (Arith, Comparison)):
        children = (node.left, node.right)
    elif isinstance(node, (ExternalCall, Atom)):
        children = node.args
    elif isinstance(node, Aggregate):
        expr = (node.expr,) if node.is_comprehension else ()
        children = node.elements + expr + node.condition
    elif isinstance(node, Binding):
        children = (node.var, node.expr)
    else:
        children = ()
    for child in children:
        yield from walk(child)


def rule_nodes(rule: Rule):
    """Every node of a rule: its head args, then each body element, at any depth."""
    for node in rule.head.args + rule.body:
        yield from walk(node)


def rule_order(rules) -> tuple:
    """The rules in an order that evaluates each after every predicate it reads.

    A head predicate depends on the predicates of every atom in its rules --
    body atoms and comprehension condition atoms at any depth.  Rules go by
    ``(height, predicate)``, where a predicate's height is one more than the
    greatest height among the rule-defined predicates it reads, and keep their
    textual order within a predicate.  Raises ProgramRecursionError on a cycle.
    """
    heads: dict = {}
    for rule in rules:
        heads.setdefault(rule.head.predicate, []).append(rule)
    deps = {
        pred: {node.predicate for rule in group for node in rule_nodes(rule)
               if isinstance(node, Atom) and node.predicate in heads}
        for pred, group in heads.items()
    }
    height: dict = {}
    visiting: set = set()

    def visit(pred):
        if pred not in height:
            if pred in visiting:
                raise ProgramRecursionError(f"recursion through predicate {pred}")
            visiting.add(pred)
            height[pred] = 1 + max(map(visit, deps[pred]), default=0)
        return height[pred]

    return tuple(rule for pred in sorted(heads, key=lambda p: (visit(p), p))
                 for rule in heads[pred])


def format_value(value) -> str:
    """Canonical text form of a ground value (used by fact files and heads)."""
    if isinstance(value, str):
        return value if _BARE.match(value) else '"%s"' % value.replace('"', '\\"')
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def format_term(term: Term) -> str:
    if isinstance(term, Const):
        return format_value(term.value)
    if isinstance(term, Var):
        return term.text
    if isinstance(term, Arith):
        return f"({format_term(term.left)} {term.op} {format_term(term.right)})"
    if isinstance(term, ExternalCall):
        return "@%s(%s)" % (term.name, ",".join(format_term(a) for a in term.args))
    if isinstance(term, Aggregate):
        if term.is_comprehension:
            cond = ",".join(format_atom(a) for a in term.condition)
            return "#%s{%s : %s}" % (term.kind, format_term(term.expr), cond)
        return "#%s{%s}" % (term.kind, ",".join(format_term(e) for e in term.elements))
    raise TypeError(f"not a term: {term!r}")


def format_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.predicate
    return "%s(%s)" % (atom.predicate, ",".join(format_term(a) for a in atom.args))


def format_body_element(el: BodyElement) -> str:
    if isinstance(el, Atom):
        return format_atom(el)
    if isinstance(el, Comparison):
        return f"{format_term(el.left)} {el.op} {format_term(el.right)}"
    if isinstance(el, Binding):
        return f"{el.var.text} = {format_term(el.expr)}"
    raise TypeError(f"not a body element: {el!r}")
