"""Independent oracles used by the test suite.

The grounder here evaluates programs by naive fixpoint iteration over all
rules until no new fact appears, with its own unification and term
evaluation.  It shares only the term dataclasses with the package; the
evaluation mechanics are written from scratch so it can serve as a
cross-check for the engine.  ``per_row_knn`` is the KNN prediction the
blocked ``predict_knn`` must equal bit for bit, written one row at a time.
"""

from __future__ import annotations

import math

import numpy as np

from semcloud.datalog.terms import (
    Aggregate,
    Arith,
    Atom,
    Binding,
    Comparison,
    Const,
    ExternalCall,
    Var,
)


class OracleFailure(Exception):
    """A ground instance could not be completed; the instance is dropped."""


def _eval(term, env, store, funcs):
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        if term.name not in env:
            raise OracleFailure("unbound " + term.name)
        return env[term.name]
    if isinstance(term, Arith):
        a = _eval(term.left, env, store, funcs)
        b = _eval(term.right, env, store, funcs)
        if not isinstance(a, float) or not isinstance(b, float):
            raise OracleFailure("arithmetic on symbols")
        if term.op == "/":
            if b == 0.0:
                raise OracleFailure("division by zero")
            return a / b
        return {"+": a + b, "-": a - b, "*": a * b}[term.op]
    if isinstance(term, ExternalCall):
        fn = funcs[term.name]
        out = float(fn(*[_eval(x, env, store, funcs) for x in term.args]))
        if not math.isfinite(out):
            raise OracleFailure("non-finite external")
        return out
    if isinstance(term, Aggregate):
        if term.is_comprehension:
            vals = []
            for scope in _scopes(list(term.condition), dict(env), store):
                vals.append(_eval(term.expr, scope, store, funcs))
            if not vals:
                raise OracleFailure("empty comprehension")
        else:
            vals = [_eval(e, env, store, funcs) for e in term.elements]
        if any(not isinstance(v, float) for v in vals):
            raise OracleFailure("aggregate over symbols")
        if term.kind == "max":
            return max(vals)
        if term.kind == "min":
            return min(vals)
        return float(np.mean(vals))
    raise TypeError(repr(term))


def _bind(atom_args, fact, env):
    """Extend env by matching an atom against one ground tuple, or None."""
    out = dict(env)
    for pat, val in zip(atom_args, fact):
        if isinstance(pat, Const):
            if pat.value != val:
                return None
        elif isinstance(pat, Var):
            if pat.is_anonymous:
                continue
            if pat.name in out and out[pat.name] != val:
                return None
            out[pat.name] = val
        else:
            return None
    return out


def _scopes(atoms, env, store):
    if not atoms:
        yield env
        return
    head = atoms[0]
    for fact in sorted(store.get((head.predicate, head.arity), set()),
                       key=lambda t: tuple(map(str, t))):
        nxt = _bind(head.args, fact, env)
        if nxt is not None:
            yield from _scopes(atoms[1:], nxt, store)


def _instances(body, env, store, funcs):
    """All complete environments for a rule body, left to right."""
    if not body:
        yield env
        return
    el, rest = body[0], body[1:]
    if isinstance(el, Atom):
        for fact in sorted(store.get((el.predicate, el.arity), set()),
                           key=lambda t: tuple(map(str, t))):
            nxt = _bind(el.args, fact, env)
            if nxt is not None:
                yield from _instances(rest, nxt, store, funcs)
    elif isinstance(el, Binding):
        try:
            val = _eval(el.expr, env, store, funcs)
        except OracleFailure:
            return
        if isinstance(val, float) and not math.isfinite(val):
            return
        nxt = dict(env)
        nxt[el.var.name] = val
        yield from _instances(rest, nxt, store, funcs)
    elif isinstance(el, Comparison):
        try:
            a = _eval(el.left, env, store, funcs)
            b = _eval(el.right, env, store, funcs)
        except OracleFailure:
            return
        if el.op in ("==", "!="):
            ok = (a == b) if el.op == "==" else (a != b)
        elif not isinstance(a, float) or not isinstance(b, float):
            return
        else:
            ok = {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[el.op]
        if ok:
            yield from _instances(rest, env, store, funcs)
    else:
        raise TypeError(repr(el))


def brute_force_ground(program, edb_facts, funcs):
    """Naive evaluation: iterate every rule until a fixpoint is reached.

    edb_facts is an iterable of (predicate, args) pairs; funcs maps external
    names (no '@') to plain callables.  Returns a dict
    (predicate, arity) -> set of ground tuples, EDB included.
    """
    store: dict = {}
    for pred, args in edb_facts:
        tup = tuple(float(a) if isinstance(a, (int, float)) else a for a in args)
        store.setdefault((pred, len(tup)), set()).add(tup)
    while True:
        grew = False
        for rule in program.rules:
            derived = []
            for env in _instances(list(rule.body), {}, store, funcs):
                try:
                    args = tuple(_eval(t, env, store, funcs)
                                 for t in rule.head.args)
                except OracleFailure:
                    continue
                derived.append(args)
            key = (rule.head.predicate, len(rule.head.args))
            bucket = store.setdefault(key, set())
            for args in derived:
                if args not in bucket:
                    bucket.add(args)
                    grew = True
        if not grew:
            return {k: v for k, v in store.items() if v}


def per_row_knn(model, X):
    """predict_knn one row at a time: full stable argsort, weights per row."""
    Xs = model.standardizer.apply(np.asarray(X, dtype=float))
    out = np.empty(Xs.shape[0])
    for row, x in enumerate(Xs):
        dist = np.sqrt(np.sum((model.samples - x) ** 2, axis=1))
        nearest = np.argsort(dist, kind="stable")[: model.k]
        d = dist[nearest]
        if d[0] == 0.0:
            out[row] = model.targets[nearest[0]]
            continue
        w = 1.0 / d
        out[row] = float(np.sum(w * model.targets[nearest]) / np.sum(w))
    return out
