"""Bottom-up evaluation of non-recursive programs.

``build_program`` is the only constructor of a ``Program``.  It takes the
rule order from ``terms.rule_order``, so every rule runs after each
predicate it reads, comprehension conditions included, and the result is
independent of the textual rule order.  Body elements are processed left to
right; a binding ``x = expr`` assigns (and, if x was bound by an earlier
atom, overwrites) the variable -- the configuration rules rely on this to
replace pre-configured values read from the pipeline graph with freshly
computed ones.

Which variables are bound at each body element does not depend on the
instance, so ``build_program`` compiles each rule into a join plan once:
every atom, comprehension conditions included, gets its lookup positions,
key sources and free-variable slots, and every term becomes a function of
the environment.  That pass alone decides safety: reading a variable where
it is not bound, or binding one twice, is a SafetyError naming the rule and
the variable.  ``_match_body`` walks a plan depth first and hands each
complete environment on: the head facts, diagnostics and external calls
come in the order of that walk.

External calls are resolved during grounding and replaced by their concrete
values.  Every external is a row function: it takes a list of argument rows
and returns one value per row.  A plain call is a one-row call; a
comprehension whose value term is a bare external call, as in
``#avg{@f(x) : range(x)}``, evaluates the arguments of every matched scope
in scope order and makes one call over all of them.  Its outcome is the
per-scope one: the first failure in scope order wins, so an argument that
fails at scope k is raised only after the values of scopes 0..k-1 were
computed and checked.  A failing ground instance (division by zero,
non-finite external result, non-finite binding or computed head value,
empty comprehension) is dropped and recorded in the diagnostics channel; it
never aborts the evaluation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

from .errors import (
    DatalogError,
    MissingExternal,
    SafetyError,
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
    format_atom,
    format_body_element,
    rule_nodes,
    rule_order,
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


@dataclass(frozen=True)
class RulePlan:
    """A rule compiled for ``evaluate``: its body as join steps and its head
    args as term functions.  ``position`` is the rule's index in
    ``Program.rules``."""

    position: int
    rule: Rule
    body: tuple
    head: tuple


def build_program(rules) -> Program:
    """The Program of ``rules``: each external call's ``(name, arity)`` in
    first-call order, and one RulePlan per rule, in ``rule_order``.  Raises
    ProgramRecursionError on a cycle and SafetyError on an unsafe rule."""
    rules = tuple(rules)
    positions = {id(rule): i for i, rule in enumerate(rules)}
    calls = dict.fromkeys(
        (node.name, len(node.args)) for rule in rules for node in rule_nodes(rule)
        if isinstance(node, ExternalCall)
    )
    return Program(rules=rules, calls=tuple(calls),
                   plans=tuple(_compile_rule(positions[id(rule)], rule)
                               for rule in rule_order(rules)))


def _compile_rule(position: int, rule: Rule) -> RulePlan:
    """``rule`` as a RulePlan.  A computed head term, arithmetic or an
    aggregate, must give a finite value, as a binding must."""
    try:
        body, bound = _compile_body(rule.body, frozenset())
        head = tuple(_finite(_compile_term(arg, bound), "non-finite head value")
                     if isinstance(arg, (Arith, Aggregate)) else _compile_term(arg, bound)
                     for arg in rule.head.args)
    except SafetyError as exc:
        raise SafetyError(f"rule {position + 1} ({format_atom(rule.head)}): {exc}") from None
    return RulePlan(position, rule, body, head)


def _finite(term, reason: str):
    """``term`` failing the instance with ``reason`` on a non-finite float."""
    def finite(env, run):
        value = term(env, run)
        if isinstance(value, float) and not math.isfinite(value):
            raise _InstanceFailure(reason)
        return value

    return finite


class _Run:
    """One evaluation's state: the facts so far, the externals, the
    diagnostics list and the rule being matched."""

    __slots__ = ("facts", "registry", "diagnostics", "rule")

    def __init__(self, facts, registry, diagnostics=None):
        self.facts = facts
        self.registry = registry
        self.diagnostics = diagnostics
        self.rule = None


def evaluate(program: Program, edb: FactSet, registry: ExternalRegistry,
             diagnostics: list | None = None) -> FactSet:
    """Return EDB plus all derived facts; a pure function of its arguments."""
    for name, arity in program.calls:
        registry.resolve(name, arity)
    facts = edb.copy()
    run = _Run(facts, registry, diagnostics)
    for plan in program.plans:
        run.rule = plan.rule
        _match_body(plan.body, 0, {}, run, _deriver(plan, run))
    return facts


def _deriver(plan: RulePlan, run: _Run):
    """The function that adds the rule's head fact for one matched body."""
    head, atom, add = plan.head, plan.rule.head, run.facts.add

    def derive(env):
        try:
            args = tuple([term(env, run) for term in head])
        except _InstanceFailure as fail:
            _record(run, atom, fail.reason)
            return
        add(atom.predicate, args)

    return derive


class _Join:
    """Join step of a positive atom.

    The atom's tuples are looked up on ``positions``, its constants and the
    variables bound before it, with one key source each: ``(False, value)``
    or ``(True, name)``.  ``slots`` are the ``(position, name)`` of its free
    variables, in order of first occurrence, and ``repeats`` the
    ``(first position, position)`` of a free variable repeated in the atom.
    Anonymous variables are neither keys nor slots.
    """

    __slots__ = ("predicate", "arity", "positions", "sources", "slots", "repeats")

    def __init__(self, atom: Atom, bound):
        positions, sources, slots, repeats, first = [], [], [], [], {}
        for i, arg in enumerate(atom.args):
            if isinstance(arg, Const):
                positions.append(i)
                sources.append((False, arg.value))
            elif isinstance(arg, Var) and not arg.is_anonymous:
                if arg.name in bound:
                    positions.append(i)
                    sources.append((True, arg.name))
                elif arg.name in first:
                    repeats.append((first[arg.name], i))
                else:
                    first[arg.name] = i
                    slots.append((i, arg.name))
        self.predicate, self.arity = atom.predicate, atom.arity
        self.positions, self.sources = tuple(positions), tuple(sources)
        self.slots, self.repeats = tuple(slots), tuple(repeats)


class _Bind:
    """Binding step ``name = expr``; ``element`` is the body element."""

    __slots__ = ("element", "name", "expr")

    def __init__(self, element: Binding, expr):
        self.element, self.name, self.expr = element, element.var.name, expr


class _Test:
    """Comparison step; ``ordered`` for the four that need two numbers."""

    __slots__ = ("element", "left", "right", "test", "ordered")

    def __init__(self, element: Comparison, left, right):
        self.element, self.left, self.right = element, left, right
        self.test = _COMPARISONS[element.op]
        self.ordered = element.op not in ("==", "!=")


_COMPARISONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_EMIT = object()  # the last step of every body: hand the environment on


def _compile_body(elements, bound):
    """Join steps for ``elements`` matched with the names in ``bound``
    already bound; returns (steps, the names bound after them).  Raises
    SafetyError on a read of a name not bound where it stands and on a
    variable bound by two bindings."""
    steps, assigned = [], set()
    for el in elements:
        if isinstance(el, Atom):
            steps.append(_Join(el, bound))
            bound = bound | {arg.name for arg in el.args
                             if isinstance(arg, Var) and not arg.is_anonymous}
        elif isinstance(el, Binding):
            name = el.var.name
            if name in assigned:
                raise SafetyError(f"variable {el.var.text} is bound twice")
            assigned.add(name)
            steps.append(_Bind(el, _finite(_compile_term(el.expr, bound),
                                           "non-finite binding value")))
            bound = bound | {name}
        elif isinstance(el, Comparison):
            steps.append(_Test(el, _compile_term(el.left, bound),
                               _compile_term(el.right, bound)))
        else:
            raise TypeError(f"unknown body element {el!r}")
    steps.append(_EMIT)
    return tuple(steps), bound


def _match_body(steps, i, env, run, emit):
    """Call ``emit`` with each environment that satisfies ``steps[i:]``,
    depth first, each step's matches in the order the facts give them."""
    step = steps[i]
    if step.__class__ is _Join:
        key = []
        for is_var, source in step.sources:
            if is_var:
                source = env[source]
                if source != source:
                    return  # NaN: the join compares with ==, and NaN equals nothing
            key.append(source)
        slots, repeats = step.slots, step.repeats
        for tup in run.facts.lookup(step.predicate, step.arity, step.positions, tuple(key)):
            if repeats and any(tup[first] != tup[j] for first, j in repeats):
                continue
            if slots:
                extended = dict(env)
                for j, name in slots:
                    extended[name] = tup[j]
                _match_body(steps, i + 1, extended, run, emit)
            else:
                _match_body(steps, i + 1, env, run, emit)
    elif step is _EMIT:
        emit(env)
    elif step.__class__ is _Bind:
        try:
            value = step.expr(env, run)
        except _InstanceFailure as fail:
            _record(run, step.element, fail.reason)
            return
        extended = dict(env)
        extended[step.name] = value
        _match_body(steps, i + 1, extended, run, emit)
    else:
        try:
            left, right = step.left(env, run), step.right(env, run)
            if step.ordered and (not isinstance(left, float) or not isinstance(right, float)):
                raise TypeMismatch("ordered comparison on non-numbers: %r %s %r"
                                   % (left, step.element.op, right))
            holds = step.test(left, right)
        except _InstanceFailure as fail:
            _record(run, step.element, fail.reason)
            return
        if holds:
            _match_body(steps, i + 1, env, run, emit)


def _compile_term(term, bound):
    """``term`` as a function ``(env, run) -> value``; ``bound`` names the
    variables bound where it is evaluated, and reading any other is a
    SafetyError."""
    if isinstance(term, Const):
        value = term.value
        return lambda env, run: value
    if isinstance(term, Var):
        name = term.name
        if name not in bound:
            raise SafetyError(f"variable {term.text} is read where it is not bound")
        return lambda env, run: env[name]
    if isinstance(term, Arith):
        left, right = _compile_term(term.left, bound), _compile_term(term.right, bound)
        op = term.op
        apply = _ARITHMETIC.get(op)

        def arithmetic(env, run):
            a, b = left(env, run), right(env, run)
            if not isinstance(a, float) or not isinstance(b, float):
                raise TypeMismatch(f"arithmetic on non-numbers: {a!r} {op} {b!r}")
            if apply is not None:
                return apply(a, b)
            if b == 0.0:
                raise _InstanceFailure("division by zero")
            return a / b

        return arithmetic
    if isinstance(term, ExternalCall):
        args = tuple(_compile_term(a, bound) for a in term.args)

        def call(env, run):
            return _call(term, [tuple([a(env, run) for a in args])], run.registry)[0]

        return call
    if isinstance(term, Aggregate):
        return _compile_aggregate(term, bound)
    raise TypeError(f"cannot evaluate {term!r}")


def _compile_aggregate(agg: Aggregate, bound):
    """``agg`` as a function ``(env, run) -> float``; a comprehension that
    matches nothing fails the instance."""
    kind, comprehension = agg.kind, agg.is_comprehension
    if comprehension:
        values = _compile_comprehension(agg, bound)
    else:
        elements = tuple(_compile_term(e, bound) for e in agg.elements)

        def values(env, run):
            return [e(env, run) for e in elements]

    def aggregate(env, run):
        found = values(env, run)
        if comprehension and not found:
            raise _InstanceFailure("#%s comprehension matched no facts" % kind)
        if any(not isinstance(v, float) for v in found):
            raise TypeMismatch("aggregate over non-numeric values")
        if kind == "max":
            return max(found)
        if kind == "min":
            return min(found)
        return sum(found) / len(found)

    return aggregate


def _compile_comprehension(agg: Aggregate, bound):
    """The comprehension's values in scope order; one call for a bare external."""
    condition, inner = _compile_body(agg.condition, bound)

    def scopes(env, run):
        matched = []
        _match_body(condition, 0, env, run, matched.append)
        return matched

    if not isinstance(agg.expr, ExternalCall):
        expr = _compile_term(agg.expr, inner)
        return lambda env, run: [expr(scope, run) for scope in scopes(env, run)]
    call = agg.expr
    args = tuple(_compile_term(a, inner) for a in call.args)

    def values(env, run):
        rows, failure = [], None
        try:
            for scope in scopes(env, run):
                rows.append(tuple([a(scope, run) for a in args]))
        except (_InstanceFailure, DatalogError) as exc:
            failure = exc  # raised once the rows before it are called and checked
        found = _call(call, rows, run.registry) if rows else []
        if failure is not None:
            raise failure
        return found

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


def _record(run: _Run, element, reason: str) -> None:
    if run.diagnostics is None:
        return
    run.diagnostics.append(
        Diagnostic(
            rule=run.rule.head.predicate,
            element=format_body_element(element),
            reason=reason,
        )
    )
