"""Bottom-up evaluation of non-recursive programs.

Rules are evaluated once each, grouped by head predicate in a topological
order of the predicate dependency graph (``Program.order``, which
``parse_program`` takes from ``terms.rule_order``), so every rule
runs after each predicate it reads, comprehension conditions included, and
the result is independent of the textual rule order.  Body elements are
processed left to right; a binding ``x = expr`` assigns (and, if x was bound
by an earlier atom, overwrites) the variable -- the configuration rules rely
on this to replace pre-configured values read from the pipeline graph with
freshly computed ones.

External calls are resolved during grounding and replaced by their concrete
values.  Every external is a row function: it takes a list of argument rows
and returns one value per row.  A plain call is a one-row call; a
comprehension whose value term is a bare external call, as in
``#avg{@f(x) : range(x)}``, evaluates the arguments of every matched scope
in scope order and makes one call over all of them.  Its outcome is the
per-scope one: the first failure in scope order wins, so an argument that
fails at scope k is raised only after the values of scopes 0..k-1 were
computed and checked.  A failing ground instance (division by zero,
non-finite external result, empty comprehension) is dropped and recorded in
the diagnostics channel; it never aborts the evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    DatalogError,
    EmptyAggregate,
    MissingExternal,
    SignatureMismatch,
    TypeMismatch,
)
from .factset import FactSet
from .terms import (
    Aggregate,
    Arith,
    Atom,
    Binding,
    Comparison,
    Const,
    ExternalCall,
    Program,
    Rule,
    Var,
    format_body_element,
)


class ExternalRegistry:
    """Maps external names to pure numeric row functions with a declared arity.

    A row function takes a list of argument rows, each a tuple of ``arity``
    values, and returns a sequence of one value per row, in row order.  The
    value for a row must not depend on the other rows of the call.
    """

    def __init__(self):
        self._functions: dict = {}

    def register(self, name: str, func: Callable, arity: int) -> None:
        self._functions[name] = (func, arity)

    def resolve(self, name: str, arity: int) -> Callable:
        if name not in self._functions:
            raise MissingExternal(f"external @{name} is not registered")
        func, declared = self._functions[name]
        if declared != arity:
            raise SignatureMismatch(
                f"@{name} registered with arity {declared}, called with {arity}"
            )
        return func


@dataclass
class Diagnostic:
    rule: str
    element: str
    reason: str


class _InstanceFailure(Exception):
    """Internal: the current ground instance cannot be completed."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def evaluate(program: Program, edb: FactSet, registry: ExternalRegistry,
             diagnostics: list | None = None) -> FactSet:
    """Return EDB plus all derived facts; a pure function of its arguments."""
    for name, arity in program.calls:
        registry.resolve(name, arity)
    facts = edb.copy()
    for rule in program.order:
        for env in _match_body(rule, rule.body, {}, facts, registry, diagnostics):
            try:
                args = tuple(_eval_term(a, env, facts, registry) for a in rule.head.args)
            except _InstanceFailure as fail:
                _record(diagnostics, rule, rule.head, fail.reason)
                continue
            facts.add(rule.head.predicate, args)
    return facts


def _match_body(rule, elements, env, facts, registry, diagnostics):
    if not elements:
        yield dict(env)
        return
    el, rest = elements[0], elements[1:]
    if isinstance(el, Atom):
        for tup in _candidates(el, env, facts):
            extended = _unify(el.args, tup, env)
            if extended is not None:
                yield from _match_body(rule, rest, extended, facts, registry, diagnostics)
    elif isinstance(el, Binding):
        try:
            value = _eval_term(el.expr, env, facts, registry)
        except _InstanceFailure as fail:
            _record(diagnostics, rule, el, fail.reason)
            return
        if isinstance(value, float) and not math.isfinite(value):
            _record(diagnostics, rule, el, "non-finite binding value")
            return
        extended = dict(env)
        extended[el.var.name] = value
        yield from _match_body(rule, rest, extended, facts, registry, diagnostics)
    elif isinstance(el, Comparison):
        try:
            if _compare(el, env, facts, registry):
                yield from _match_body(rule, rest, env, facts, registry, diagnostics)
        except _InstanceFailure as fail:
            _record(diagnostics, rule, el, fail.reason)
    else:  # pragma: no cover - parser only produces the three kinds
        raise TypeError(f"unknown body element {el!r}")


def _candidates(atom, env, facts):
    """The atom's tuples that can match: looked up on its bound positions."""
    positions, key = [], []
    for i, arg in enumerate(atom.args):
        if isinstance(arg, Const):
            positions.append(i)
            key.append(arg.value)
        elif isinstance(arg, Var) and arg.name in env and not arg.is_anonymous:
            positions.append(i)
            key.append(env[arg.name])
    return facts.lookup(atom.predicate, atom.arity, tuple(positions), tuple(key))


def _unify(args, tup, env):
    """``env`` extended by the atom's free variables, or None.

    ``tup`` came from _candidates, so its constants and the variables bound
    before the atom already match; only a variable repeated inside the atom
    can still disagree.
    """
    extended = dict(env)
    for arg, value in zip(args, tup):
        if isinstance(arg, Var) and not arg.is_anonymous:
            if extended.setdefault(arg.name, value) != value:
                return None
    return extended


def _compare(cmp: Comparison, env, facts, registry) -> bool:
    left = _eval_term(cmp.left, env, facts, registry)
    right = _eval_term(cmp.right, env, facts, registry)
    if cmp.op == "==":
        return left == right
    if cmp.op == "!=":
        return left != right
    if not isinstance(left, float) or not isinstance(right, float):
        raise TypeMismatch(f"ordered comparison on non-numbers: {left!r} {cmp.op} {right!r}")
    return {"<": left < right, "<=": left <= right, ">": left > right, ">=": left >= right}[cmp.op]


def _eval_term(term, env, facts, registry):
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise _InstanceFailure(f"unbound variable {term.name}") from None
    if isinstance(term, Arith):
        left = _eval_term(term.left, env, facts, registry)
        right = _eval_term(term.right, env, facts, registry)
        if not isinstance(left, float) or not isinstance(right, float):
            raise TypeMismatch(f"arithmetic on non-numbers: {left!r} {term.op} {right!r}")
        if term.op == "+":
            return left + right
        if term.op == "-":
            return left - right
        if term.op == "*":
            return left * right
        if right == 0.0:
            raise _InstanceFailure("division by zero")
        return left / right
    if isinstance(term, ExternalCall):
        return _call(term, [tuple(_eval_term(a, env, facts, registry) for a in term.args)],
                     registry)[0]
    if isinstance(term, Aggregate):
        try:
            return evaluate_aggregate(term, env, facts, registry)
        except EmptyAggregate as exc:
            raise _InstanceFailure(str(exc)) from exc
    raise TypeError(f"cannot evaluate {term!r}")


def evaluate_aggregate(agg: Aggregate, env, facts, registry) -> float:
    """#max/#min/#avg over a term list or a comprehension's value multiset."""
    if agg.is_comprehension:
        values = _comprehension_values(agg, env, facts, registry)
        if not values:
            raise EmptyAggregate(
                "#%s comprehension matched no facts" % agg.kind
            )
    else:
        values = [_eval_term(e, env, facts, registry) for e in agg.elements]
    if any(not isinstance(v, float) for v in values):
        raise TypeMismatch("aggregate over non-numeric values")
    if agg.kind == "max":
        return max(values)
    if agg.kind == "min":
        return min(values)
    return sum(values) / len(values)


def _comprehension_values(agg: Aggregate, env, facts, registry) -> list:
    """The comprehension's values in scope order; one call for a bare external."""
    # condition atoms only: no rule or diagnostics are needed to match them
    scopes = _match_body(None, agg.condition, env, facts, registry, None)
    if not isinstance(agg.expr, ExternalCall):
        return [_eval_term(agg.expr, scope, facts, registry) for scope in scopes]
    rows, failure = [], None
    try:
        for scope in scopes:
            rows.append(tuple(_eval_term(a, scope, facts, registry) for a in agg.expr.args))
    except (_InstanceFailure, DatalogError) as exc:
        failure = exc  # raised once the rows before it are called and checked
    values = _call(agg.expr, rows, registry) if rows else []
    if failure is not None:
        raise failure
    return values


def _call(term: ExternalCall, rows: list, registry) -> list:
    """@term's values for the argument ``rows`` from one call, checked in row order."""
    values = registry.resolve(term.name, len(term.args))(rows)
    if len(values) != len(rows):
        raise SignatureMismatch(
            f"@{term.name} returned {len(values)} values for {len(rows)} rows"
        )
    checked = []
    for value in values:
        value = float(value)
        if not math.isfinite(value):
            raise _InstanceFailure(f"@{term.name} returned a non-finite value")
        checked.append(value)
    return checked


def _record(diagnostics, rule: Rule, element, reason: str) -> None:
    if diagnostics is None:
        return
    diagnostics.append(
        Diagnostic(
            rule=rule.head.predicate,
            element=format_body_element(element),
            reason=reason,
        )
    )
