"""Span recording around the public functions of each semcloud layer.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces the module attribute that each caller looks up (for example
``semcloud.sim.engine.build_trace``, which ``run`` calls) and returns a
function that puts every original back.  Spans are kept in memory and
written out by the caller when the run ends.

A span is ``{"id", "name", "start", "end", "parent", "run", "counts"}``.
Times are ``time.perf_counter()`` seconds (CLOCK_MONOTONIC on Linux, so
spans from the stage subprocesses share one time base); ``counts`` holds
the counters observed at that boundary (rows predicted, candidates
searched, facts derived, ...).
"""

import contextlib
import functools
import importlib
import inspect
import statistics
import time


class Tracer:
    def __init__(self, run=0):
        self.run = run
        self.spans = []
        self._stack = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name):
        self._next_id += 1
        record = {
            "id": self._next_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run,
            "counts": {},
        }
        self._stack.append(record)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def wrap(self, func, name, observe=None):
        """A wrapper timing ``func`` as ``name``; ``observe`` fills counts.

        Generator functions are drained inside the span (the benchmark
        consumes them whole), so the span covers the work, not the call.
        """
        drain = inspect.isgeneratorfunction(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as counts:
                result = func(*args, **kwargs)
                if drain:
                    result = tuple(result)
                if observe is not None:
                    observe(counts, args, kwargs, result)
            return result

        return wrapper


# ---- observers: counters read at the layer boundary ------------------------

def _observe_run(counts, args, kwargs, result):
    trace, _record = result
    counts["messages"] = sum(ch.published for ch in trace.channels)
    counts["restarts"] = trace.restarts


def _observe_trace(counts, args, kwargs, trace):
    counts["trace_points"] = len(trace.times)


def _observe_predict(counts, args, kwargs, result):
    counts["rows"] = len(result)


def _observe_search(counts, args, kwargs, result):
    counts["candidates"] = result.evaluated
    counts["dropped"] = result.dropped


def _observe_ingest(counts, args, kwargs, result):
    counts["rejects"] = len(result[1])


def _observe_slices(counts, args, kwargs, result):
    counts["slices"] = len(result)


def _observe_store(counts, args, kwargs, receipt):
    counts["bytes"] = receipt.bytes_written
    counts["records"] = receipt.record_count


def _observe_generate(counts, args, kwargs, result):
    counts["records"] = args[0].total_records()


# (module, attribute, span name, observer).  Each entry is the lookup a
# caller makes; the CLI imports names into its own namespace, the library
# modules call each other through their module globals, and the benchmark
# workloads call through the package attributes.
TARGETS = (
    ("semcloud.cli", "collect_pilot_stats", "sim.collect_pilot_stats", None),
    ("semcloud.sim.engine", "run", "sim.run", _observe_run),
    ("semcloud.cli", "run", "sim.run", _observe_run),
    ("semcloud.sim.engine", "build_trace", "sim.build_trace", _observe_trace),
    ("semcloud.sim.engine", "deploy", "sim.deploy", None),
    ("semcloud.cli", "deploy", "sim.deploy", None),
    ("semcloud.cli", "run_legacy", "sim.legacy", None),
    ("semcloud.cli", "write_trace", "sim.write_trace", None),
    ("semcloud.cli", "learn_externals", "learning.fit", None),
    ("semcloud.cli", "learn_time_model", "learning.fit", None),
    ("semcloud.cli", "min_train_fraction_sweep", "learning.sweep", None),
    ("semcloud.learning.registry", "predict_method", "learning.predict", _observe_predict),
    ("semcloud.configure", "predict_method", "learning.predict", _observe_predict),
    ("semcloud.configure", "optimize_slicing", "optimizer.search", _observe_search),
    ("semcloud.configure", "configure_pipeline", "configure.pipeline", None),
    ("semcloud.cli", "configure_pipeline", "configure.pipeline", None),
    ("semcloud.datalog.corpus", "parse_program", "datalog.parse", None),
    ("semcloud.configure", "to_facts", "kg.to_facts", None),
    ("semcloud.kg", "to_facts", "kg.to_facts", None),
    ("semcloud.cli", "parse_pipeline", "kg.parse_pipeline", None),
    ("semcloud.kg", "parse_pipeline", "kg.parse_pipeline", None),
    ("semcloud.cli", "serialize_pipeline", "kg.serialize_pipeline", None),
    ("semcloud.kg", "serialize_pipeline", "kg.serialize_pipeline", None),
    ("semcloud.cli", "generate_workload", "etl.generate", _observe_generate),
    ("semcloud.etl", "generate_workload", "etl.generate", _observe_generate),
    ("semcloud.etl", "ingest", "etl.ingest", _observe_ingest),
    ("semcloud.etl", "map_to_unified", "etl.map", None),
    ("semcloud.etl", "slice_records", "etl.slice", _observe_slices),
    ("semcloud.etl", "prepare_slice", "etl.prepare", None),
    ("semcloud.etl", "store_prepared", "etl.store", _observe_store),
)

# Both evaluate entry points: configure_pipeline's and the batch's.
EVALUATE_TARGETS = (("semcloud.configure", "evaluate"), ("semcloud.datalog", "evaluate"))


def _wrap_evaluate(tracer, func):
    @functools.wraps(func)
    def wrapper(program, edb, registry, diagnostics=None):
        # The engine only appends to a diagnostics list; passing one when
        # the caller did not observes dropped instances without changing
        # the derived facts.
        seen = [] if diagnostics is None else diagnostics
        before = len(seen)
        with tracer.span("datalog.evaluate") as counts:
            idb = func(program, edb, registry, diagnostics=seen)
            counts["edb_facts"] = len(edb)
            counts["idb_facts"] = len(idb) - len(edb)
            counts["diagnostics"] = len(seen) - before
        return idb

    return wrapper


def _wrap_resolve(tracer, resolve):
    @functools.wraps(resolve)
    def wrapper(self, name, arity):
        return tracer.wrap(resolve(self, name, arity), "datalog.external")

    return wrapper


def install(tracer):
    """Put the wrappers in place; returns a function that removes them."""
    undo = []

    def patch(owner, attribute, replacement):
        undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    for module_name, attribute, name, observe in TARGETS:
        module = importlib.import_module(module_name)
        patch(module, attribute, tracer.wrap(getattr(module, attribute), name, observe))
    for module_name, attribute in EVALUATE_TARGETS:
        module = importlib.import_module(module_name)
        patch(module, attribute, _wrap_evaluate(tracer, getattr(module, attribute)))
    from semcloud.datalog.engine import ExternalRegistry

    patch(ExternalRegistry, "resolve", _wrap_resolve(tracer, ExternalRegistry.resolve))

    def uninstall():
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall


# ---- aggregation -------------------------------------------------------------

def span_table(spans):
    """{name: {"calls", "inclusive_s", "self_s", counter: total}} for spans.

    A span's self time is its duration minus the durations of its direct
    children; spans nest without overlap because each process is single
    threaded.
    """
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["run"], span.get("process"), span["parent"])
            child_time[key] = child_time.get(key, 0.0) + span["end"] - span["start"]
    table = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["inclusive_s"] += duration
        row["self_s"] += duration - child_time.get((span["run"], span.get("process"), span["id"]), 0.0)
        for counter, value in span["counts"].items():
            row[counter] = row.get(counter, 0) + value
    return table


# Per-layer metrics as (name, unit, span name, span-table field).  Every
# ``_s`` metric is the inclusive time of its span except ``datalog.join_s``,
# the self time of evaluate (evaluate minus the externals it called).
LAYER_METRICS = (
    ("sim.run_calls", "count", "sim.run", "calls"),
    ("sim.run_s", "s", "sim.run", "inclusive_s"),
    ("sim.build_trace_s", "s", "sim.build_trace", "inclusive_s"),
    ("sim.trace_points", "count", "sim.build_trace", "trace_points"),
    ("sim.messages", "count", "sim.run", "messages"),
    ("sim.restarts", "count", "sim.run", "restarts"),
    ("sim.write_trace_s", "s", "sim.write_trace", "inclusive_s"),
    ("sim.deploy_s", "s", "sim.deploy", "inclusive_s"),
    ("sim.legacy_s", "s", "sim.legacy", "inclusive_s"),
    ("learning.fit_s", "s", "learning.fit", "inclusive_s"),
    ("learning.sweep_s", "s", "learning.sweep", "inclusive_s"),
    ("learning.predict_calls", "count", "learning.predict", "calls"),
    ("learning.predict_rows", "count", "learning.predict", "rows"),
    ("learning.predict_s", "s", "learning.predict", "inclusive_s"),
    ("optimizer.searches", "count", "optimizer.search", "calls"),
    ("optimizer.candidates", "count", "optimizer.search", "candidates"),
    ("optimizer.dropped", "count", "optimizer.search", "dropped"),
    ("optimizer.search_s", "s", "optimizer.search", "inclusive_s"),
    ("datalog.evaluate_s", "s", "datalog.evaluate", "inclusive_s"),
    ("datalog.external_calls", "count", "datalog.external", "calls"),
    ("datalog.external_s", "s", "datalog.external", "inclusive_s"),
    ("datalog.join_s", "s", "datalog.evaluate", "self_s"),
    ("datalog.edb_facts", "count", "datalog.evaluate", "edb_facts"),
    ("datalog.idb_facts", "count", "datalog.evaluate", "idb_facts"),
    ("datalog.diagnostics", "count", "datalog.evaluate", "diagnostics"),
    ("datalog.parse_calls", "count", "datalog.parse", "calls"),
    ("datalog.parse_s", "s", "datalog.parse", "inclusive_s"),
    ("kg.to_facts_s", "s", "kg.to_facts", "inclusive_s"),
    ("kg.parse_pipeline_s", "s", "kg.parse_pipeline", "inclusive_s"),
    ("kg.serialize_pipeline_s", "s", "kg.serialize_pipeline", "inclusive_s"),
    ("etl.generate_s", "s", "etl.generate", "inclusive_s"),
    ("etl.ingest_s", "s", "etl.ingest", "inclusive_s"),
    ("etl.map_s", "s", "etl.map", "inclusive_s"),
    ("etl.slice_s", "s", "etl.slice", "inclusive_s"),
    ("etl.prepare_s", "s", "etl.prepare", "inclusive_s"),
    ("etl.store_s", "s", "etl.store", "inclusive_s"),
    ("etl.records", "count", "etl.generate", "records"),
    ("etl.slices", "count", "etl.slice", "slices"),
    ("etl.rejects", "count", "etl.ingest", "rejects"),
    ("etl.bytes_stored", "count", "etl.store", "bytes"),
)


# Timed from outside, around each CLI stage process; only ``loop`` runs them.
CLI_METRICS = tuple("cli.%s_s" % stage for stage in
                    ("import", "gen", "pilot", "learn", "configure", "simulate", "report"))


def layer_metrics(spans):
    """Median over runs (batches) of each per-layer metric; 0 if not exercised."""
    runs = sorted({span["run"] for span in spans})
    per_run = [span_table([s for s in spans if s["run"] == run]) for run in runs]
    metrics = {name: {"value": 0.0, "unit": "s"} for name in CLI_METRICS}
    for name, unit, span, field in LAYER_METRICS:
        values = [table.get(span, {}).get(field, 0) for table in per_run] or [0]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics
