"""Independent oracles used by the test suite.

The grounder here evaluates programs by naive fixpoint iteration over all
rules until no new fact appears, with its own unification and term
evaluation.  It shares only the term dataclasses with the package; the
evaluation mechanics are written from scratch so it can serve as a
cross-check for the engine.  ``per_row_knn`` is the KNN prediction the
blocked ``predict_knn`` must equal bit for bit, written one row at a time;
``per_row_polyr`` is the same for ``predict_polyr``, stacking each row's
design from one power column per feature and power.
``per_message_run`` is the simulation ``sim.run`` must equal bit for bit,
served one message at a time on instance objects that each build an
interval tuple; ``trace_of`` makes a trace of one instance per interval,
and ``intervals_of`` reads any trace back as interval tuples.
"""

from __future__ import annotations

import heapq
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
from semcloud.pilots import PilotRunRecord
from semcloud.sim import QueueChannel, RunTrace


class OracleFailure(Exception):
    """A ground instance could not be completed; the instance is dropped."""


def _eval(term, env, store, funcs):
    if isinstance(term, Const):
        return term.value
    if isinstance(term, Var):
        if term.name not in env:
            raise OracleFailure("unbound variable " + term.name)
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
            raise OracleFailure("@%s returned a non-finite value" % term.name)
        return out
    if isinstance(term, Aggregate):
        if term.is_comprehension:
            vals = []
            for scope in _scopes(list(term.condition), dict(env), store):
                vals.append(_eval(term.expr, scope, store, funcs))
            if not vals:
                raise OracleFailure("#%s comprehension matched no facts" % term.kind)
        else:
            vals = [_eval(e, env, store, funcs) for e in term.elements]
        if any(not isinstance(v, float) for v in vals):
            raise OracleFailure("aggregate over symbols")
        if term.kind == "max":
            return max(vals)
        if term.kind == "min":
            return min(vals)
        return sum(vals) / len(vals)
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


def _instances(body, env, store, funcs, drop):
    """All complete environments for a rule body, left to right; an instance
    that fails at a binding or comparison goes to ``drop(element, reason)``."""
    if not body:
        yield env
        return
    el, rest = body[0], body[1:]
    if isinstance(el, Atom):
        for fact in sorted(store.get((el.predicate, el.arity), set()),
                           key=lambda t: tuple(map(str, t))):
            nxt = _bind(el.args, fact, env)
            if nxt is not None:
                yield from _instances(rest, nxt, store, funcs, drop)
    elif isinstance(el, Binding):
        try:
            val = _eval(el.expr, env, store, funcs)
        except OracleFailure as exc:
            drop(el, str(exc))
            return
        if isinstance(val, float) and not math.isfinite(val):
            drop(el, "non-finite binding value")
            return
        nxt = dict(env)
        nxt[el.var.name] = val
        yield from _instances(rest, nxt, store, funcs, drop)
    elif isinstance(el, Comparison):
        try:
            a = _eval(el.left, env, store, funcs)
            b = _eval(el.right, env, store, funcs)
        except OracleFailure as exc:
            drop(el, str(exc))
            return
        if el.op in ("==", "!="):
            ok = (a == b) if el.op == "==" else (a != b)
        elif not isinstance(a, float) or not isinstance(b, float):
            return
        else:
            ok = {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[el.op]
        if ok:
            yield from _instances(rest, env, store, funcs, drop)
    else:
        raise TypeError(repr(el))


def _head_value(term, env, store, funcs):
    """A head term's value; a computed one, arithmetic or an aggregate, must
    be finite, as a binding's value must."""
    val = _eval(term, env, store, funcs)
    if isinstance(term, (Arith, Aggregate)) and not math.isfinite(val):
        raise OracleFailure("non-finite head value")
    return val


def brute_force_ground(program, edb_facts, funcs, dropped=None):
    """Naive evaluation: iterate every rule until a fixpoint is reached.

    edb_facts is an iterable of (predicate, args) pairs; funcs maps external
    names (no '@') to plain callables.  Returns a dict
    (predicate, arity) -> set of ground tuples, EDB included.  A ``dropped``
    list receives ``(head predicate, element, reason)`` for each instance
    the last pass, the one that derives nothing new, could not complete; the
    element is the body element or the head atom that failed.  A computed
    head value that is not finite drops its instance.
    """
    store: dict = {}
    for pred, args in edb_facts:
        tup = tuple(float(a) if isinstance(a, (int, float)) else a for a in args)
        store.setdefault((pred, len(tup)), set()).add(tup)
    while True:
        grew = False
        drops = []
        for rule in program.rules:
            def drop(element, reason, rule=rule):
                drops.append((rule.head.predicate, element, reason))

            derived = []
            for env in _instances(list(rule.body), {}, store, funcs, drop):
                try:
                    args = tuple(_head_value(t, env, store, funcs)
                                 for t in rule.head.args)
                except OracleFailure as exc:
                    drop(rule.head, str(exc))
                    continue
                derived.append(args)
            key = (rule.head.predicate, len(rule.head.args))
            bucket = store.setdefault(key, set())
            for args in derived:
                if args not in bucket:
                    bucket.add(args)
                    grew = True
        if not grew:
            if dropped is not None:
                dropped.extend(drops)
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


def per_row_polyr(model, X):
    """predict_polyr one row at a time: the intercept and each feature's
    powers 1..degree stacked into the row's design, then weighted and summed."""
    X = np.asarray(X, dtype=float)
    out = np.empty(X.shape[0])
    for row in range(X.shape[0]):
        Xs = X[row:row + 1] / model.feature_scale
        columns = [np.ones(1)] + [Xs[:, j] ** p for j in range(Xs.shape[1])
                                  for p in range(1, model.degree + 1)]
        out[row] = (np.column_stack(columns) * model.weights).sum(axis=-1)[0]
    return out


def trace_of(intervals, windows, channels=(), restarts=0):
    """A RunTrace of one step that serves each (start, end, node, mem_mb,
    cpu) interval on an instance of its own."""
    intervals = list(intervals)
    return RunTrace(
        [(tuple(interval[2:] for interval in intervals), list(range(len(intervals))),
          [interval[0] for interval in intervals], [interval[1] for interval in intervals])],
        dict(windows), channels, restarts)


def intervals_of(trace):
    """A trace's (start, end, node, mem_mb, cpu) intervals, in step and
    message order."""
    return [(start, end) + instances[i] for instances, picks, starts, ends in trace.steps
            for i, start, end in zip(picks, starts, ends)]


class _Instance:
    def __init__(self, spec, cost):
        self.spec = spec
        self.available_at = 0.0
        self.oomed = spec.working_mb > spec.reservation_mb
        self.penalty_fraction = cost.restart_penalty
        self.cpu = cost.cpu_per_instance
        self.restarted = False

    def process(self, ready_at, service, intervals):
        start = self.available_at if self.available_at > ready_at else ready_at
        if self.oomed and not self.restarted:
            # working set over reservation: the step restarts once and
            # the elapsed phase time is paid again
            service *= 1.0 + self.penalty_fraction
            self.restarted = True
        end = start + service
        self.available_at = end
        intervals.append((start, end, self.spec.node, self.spec.working_mb, self.cpu))
        return end


def _chunk_sizes(n, nc):
    sizes = [nc] * (n // nc)
    if n % nc:
        sizes.append(n % nc)
    return sizes


def per_message_run(plan, workload, cost, seed=0, kind="configuration"):
    """``sim.run`` one message at a time, on ``_Instance`` objects, with a
    new RandomState per call; returns (RunTrace, PilotRunRecord).

    Messages flow chunk -> slices -> prepared slices over FIFO channels
    with a fixed latency per hop.  Each step serves its messages in
    arrival order, on the earliest-available of its instances, for
    ``(size / throughput + overhead) * noise`` seconds.  Deterministic
    for a given seed: one noise draw per message, step by step, then
    five for the record; each step draws its messages' noise at once.
    """
    rng = np.random.RandomState(seed)
    amp = cost.noise_amplitude

    def noise(k):
        """k multiplicative factors; draws nothing when amp is 0."""
        if amp == 0.0:
            return [1.0] * k
        return (1.0 + amp * (2.0 * rng.rand(k) - 1.0)).tolist()

    lam = plan.cluster.queue_latency
    n = workload.n_records
    # (step, records/s, s per message, output channel); slice's output
    # messages are runs of ns records, the others pass their size on.
    steps = (
        ("retrieve", cost.thr_retrieve, 0.0, "chunks"),
        ("slice", cost.thr_slice, 0.0, "slices"),
        ("prepare", cost.thr_prepare, cost.join_overhead, "prepared"),
        ("store", cost.thr_store, 0.0, None),
    )
    messages = [(size, 0.0) for size in _chunk_sizes(n, plan.nc)]
    intervals, windows, channels, restarts = [], {}, [], 0
    for step, thr, overhead, channel in steps:
        instances = [_Instance(spec, cost) for spec in plan.step_instances(step)]
        # the earliest-available instance, lowest index first, is on top
        free = [(0.0, inst.spec.index, inst) for inst in instances]
        heapq.heapify(free)
        split = step == "slice"
        first = len(intervals)
        out = []
        for (size, ready), factor in zip(messages, noise(len(messages))):
            _, index, inst = free[0]
            end = inst.process(ready, (size / thr + overhead) * factor, intervals) + lam
            heapq.heapreplace(free, (inst.available_at, index, inst))
            if split:
                for piece in _chunk_sizes(size, plan.ns):
                    out.append((piece, end))
            else:
                out.append((size, end))
        if len(intervals) > first:
            # No interval starts before the step's first: retrieve's messages
            # are all ready at 0, slice and prepare receive theirs in arrival
            # order, prepare's earliest-free time only rises, and each
            # single-instance step serves first in, first out.
            windows[step] = (intervals[first][0], max(inst.available_at for inst in instances))
        restarts += sum(inst.restarted for inst in instances)
        if channel is not None:
            channels.append(QueueChannel(channel, len(out)))
        messages = out

    trace = trace_of(intervals, windows, channels, restarts)
    # the totals straight from the intervals, not from RunTrace
    trace.consumed_time = max((end for _, end, *_ in intervals), default=0.0)
    trace.cpu_integral = math.fsum((end - start) * cpu for start, end, _, _, cpu in intervals)

    volume = workload.volume_mb
    ts = _window_len(windows.get("slice"))
    tp = _window_len(windows.get("prepare"))
    rec_nc = min(plan.nc, n) if n else 0
    rec_ns = min(plan.ns, rec_nc) if n else 0
    f_ms, f_mp, f_ssl, f_spr, f_sst = noise(5)
    record = PilotRunRecord(
        pipeline=plan.pipeline,
        no_records=float(n),
        volume=volume,
        chunk_size=float(rec_nc),
        slice_size=float(rec_ns),
        slice_time=ts,
        prepare_time=tp,
        slice_memory=cost.slice_working_mb(plan.nc, workload.record_bytes) * f_ms,
        prepare_memory=cost.prepare_working_mb(plan.ns, workload.record_bytes) * f_mp,
        slice_storage=cost.expansion_slice * volume * f_ssl,
        prepare_storage=cost.expansion_prepare * volume * f_spr,
        store_storage=cost.expansion_store * volume * f_sst,
        slice_memory_reservation=plan.step_instances("slice")[0].reservation_mb,
        prepare_memory_reservation=plan.step_instances("prepare")[0].reservation_mb,
        storage_mode=plan.storage_mode,
        total_time=trace.consumed_time,
        cpu_integral=trace.cpu_integral,
        kind=kind,
    )
    return trace, record


def _window_len(window):
    if window is None:
        return 0.0
    return window[1] - window[0]
