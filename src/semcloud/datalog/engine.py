"""Bottom-up evaluation of non-recursive programs.

Rules are evaluated once each, grouped by head predicate in a topological
order of the predicate dependency graph (``terms.rule_order``), so every rule
runs after each predicate it reads, comprehension conditions included, and
the result is independent of the textual rule order.  Body elements are
processed left to right; a binding ``x = expr`` assigns (and, if x was bound
by an earlier atom, overwrites) the variable -- the configuration rules rely
on this to replace pre-configured values read from the pipeline graph with
freshly computed ones.

External calls are resolved during grounding and replaced by their concrete
values.  A failing ground instance (division by zero, non-finite external
result, empty comprehension) is dropped and recorded in the diagnostics
channel; it never aborts the evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import (
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
    rule_nodes,
    rule_order,
)


class ExternalRegistry:
    """Maps external names to pure numeric functions with a declared arity."""

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

    def names(self):
        return sorted(self._functions)

    def __contains__(self, name: str) -> bool:
        return name in self._functions


@dataclass
class Diagnostic:
    rule: str
    element: str
    reason: str
    environment: dict = field(default_factory=dict)


class _InstanceFailure(Exception):
    """Internal: the current ground instance cannot be completed."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def evaluate(program: Program, edb: FactSet, registry: ExternalRegistry,
             diagnostics: list | None = None) -> FactSet:
    """Return EDB plus all derived facts; a pure function of its arguments."""
    order, calls = _schedule(program.rules)
    for name, arity in calls:
        registry.resolve(name, arity)
    facts = edb.copy()
    for rule in order:
        for env in _match_body(rule, rule.body, {}, facts, registry, diagnostics):
            try:
                args = tuple(_eval_term(a, env, facts, registry) for a in rule.head.args)
            except _InstanceFailure as fail:
                _record(diagnostics, rule, rule.head, fail.reason, env)
                continue
            facts.add(rule.head.predicate, args)
    return facts


@functools.lru_cache(maxsize=32)
def _schedule(rules: tuple):
    """The rule order and each external's ``(name, arity)``, in first-call order.

    Both depend on the rules alone, and walking every node of the corpus for
    them costs more than evaluating one pipeline, so they are kept per rule
    tuple.
    """
    calls = dict.fromkeys(
        (node.name, len(node.args)) for rule in rules for node in rule_nodes(rule)
        if isinstance(node, ExternalCall)
    )
    return rule_order(rules), tuple(calls)


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
            _record(diagnostics, rule, el, fail.reason, env)
            return
        if isinstance(value, float) and not math.isfinite(value):
            _record(diagnostics, rule, el, "non-finite binding value", env)
            return
        extended = dict(env)
        extended[el.var.name] = value
        yield from _match_body(rule, rest, extended, facts, registry, diagnostics)
    elif isinstance(el, Comparison):
        try:
            if _compare(el, env, facts, registry):
                yield from _match_body(rule, rest, env, facts, registry, diagnostics)
        except _InstanceFailure as fail:
            _record(diagnostics, rule, el, fail.reason, env)
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
    extended = dict(env)
    for arg, value in zip(args, tup):
        if isinstance(arg, Const):
            if arg.value != value:
                return None
        elif isinstance(arg, Var):
            if arg.is_anonymous:
                continue
            if arg.name in extended:
                if extended[arg.name] != value:
                    return None
            else:
                extended[arg.name] = value
        else:
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
        func = registry.resolve(term.name, len(term.args))
        args = [_eval_term(a, env, facts, registry) for a in term.args]
        value = func(*args)
        value = float(value)
        if not math.isfinite(value):
            raise _InstanceFailure(f"@{term.name} returned a non-finite value")
        return value
    if isinstance(term, Aggregate):
        try:
            return evaluate_aggregate(term, env, facts, registry)
        except EmptyAggregate as exc:
            raise _InstanceFailure(str(exc)) from exc
    raise TypeError(f"cannot evaluate {term!r}")


def evaluate_aggregate(agg: Aggregate, env, facts, registry) -> float:
    """#max/#min/#avg over a term list or a comprehension's value multiset."""
    if agg.is_comprehension:
        # condition atoms only: no rule or diagnostics are needed to match them
        values = [
            _eval_term(agg.expr, scope, facts, registry)
            for scope in _match_body(None, agg.condition, env, facts, registry, None)
        ]
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


def _record(diagnostics, rule: Rule, element, reason: str, env: dict) -> None:
    if diagnostics is None:
        return
    diagnostics.append(
        Diagnostic(
            rule=rule.head.predicate,
            element=format_body_element(element),
            reason=reason,
            environment=dict(env),
        )
    )
