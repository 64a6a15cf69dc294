"""Benchmark of the semcloud loop: one command, three workloads.

    python3 bench/run.py --workload {loop,fleet,etl} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Every input is derived from ``--seed``.  The run sets the
workload up three times (``setup_s`` is the median), then runs whole
batches one after another until ``--seconds`` would be exceeded (at
least two, so that reproducibility can be checked), checks the outputs,
and prints its metrics; the last line of standard output is one JSON
object.

With ``--trace 0`` the metrics are the end-to-end ones (medians over
the batches).  With ``--trace 1`` untraced and traced batches alternate;
the metrics are the per-layer ones, read from spans recorded by the
wrappers in ``tracer.py``, plus ``trace.overhead_s`` (traced minus
untraced ``batch_s``).  Details, human-readable figures, the span file
and the per-layer table go to ``bench/out/results/``.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time

from common import HERE, SRC, CheckFailed, Context, SpeedSampler

SETUP_REPEATS = 3
MIN_BATCHES = 2

# End-to-end metric -> unit; every workload reports each of them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("loop", "fleet", "etl"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale inputs, for the smoke test")
    return parser.parse_args(argv)


def _import_program():
    """Import semcloud from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "semcloud", "__init__.py")):
        sys.stderr.write("bench: no semcloud sources under %s\n" % SRC)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import semcloud

    if os.path.dirname(os.path.dirname(os.path.abspath(semcloud.__file__))) != SRC:
        sys.stderr.write("bench: imported semcloud from %s, not %s\n" % (semcloud.__file__, SRC))
        raise SystemExit(2)


def _workload(name, ctx):
    if name == "loop":
        from work_loop import Loop as cls
    elif name == "fleet":
        from work_fleet import Fleet as cls
    else:
        from work_etl import Etl as cls
    return cls(ctx)


def _run_batches(workload, seconds, trace):
    import tracer as tracing

    batches, spans = [], []
    started = time.perf_counter()
    while True:
        index = len(batches)
        traced = bool(trace) and index % 2 == 1
        tracer = tracing.Tracer(run=index) if traced else None
        uninstall = tracing.install(tracer) if traced and workload.in_process else None
        # Start every batch from the same heap: the garbage of the last
        # one is not collected on this batch's time.
        gc.collect()
        batch_started = time.perf_counter()
        try:
            result = workload.batch(index, traced)
        finally:
            if uninstall is not None:
                uninstall()
        last = time.perf_counter() - batch_started
        result["traced"] = traced
        if tracer is not None:
            spans += tracer.spans
        spans += result.pop("spans", [])
        batches.append(result)
        elapsed = time.perf_counter() - started
        if len(batches) >= MIN_BATCHES and elapsed + last > seconds:
            return batches, spans


def _write_layer_table(path, spans):
    import tracer as tracing

    table = tracing.span_table(spans)
    counters = sorted({c for row in table.values() for c in row} - {"calls", "inclusive_s", "self_s"})
    lines = ["\t".join(["span", "calls", "inclusive_s", "self_s"] + counters)]
    for name in sorted(table):
        row = table[name]
        lines.append("\t".join([name, str(row["calls"]), repr(row["inclusive_s"]),
                                repr(row["self_s"])] + [str(row.get(c, "")) for c in counters]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv):
    args = _parse_args(argv)
    _import_program()
    import numpy as np
    import tracer as tracing

    out = os.path.join(HERE, "out")
    results_dir = os.path.join(out, "results")
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(out, "work", "%s-%d" % (stem, os.getpid()))
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(workdir)
    environment = {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "smoke": args.smoke,
    }
    print("bench %s: seed=%d nproc=%d python=%s numpy=%s%s" % (
        args.workload, args.seed, os.cpu_count(), platform.python_version(),
        np.__version__, " (smoke scale)" if args.smoke else ""))

    sampler = SpeedSampler()
    workload = _workload(args.workload, Context(args.seed, args.smoke, workdir, sampler))
    correct, reason = True, None
    batches, spans, named, layers, setup_times = [], [], {}, {}, []
    sampler.start()
    try:
        for _ in range(SETUP_REPEATS):
            setup_times.append(workload.setup())
        batches, spans = _run_batches(workload, args.seconds, args.trace)
        named, layers = workload.finish(batches)
    except CheckFailed as exc:
        correct, reason = False, str(exc)
        sys.stderr.write("bench: check failed: %s\n" % exc)
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(b["attempted"] for b in batches) or 1
    # A failed check counts as one more failed operation.
    failed = sum(b["failed"] for b in batches) + (0 if correct else 1)
    untraced = [b["batch_s"] for b in batches if not b["traced"]] or [0.0]
    end_to_end = {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "batch_s": statistics.median(untraced),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    named["failed_ratio"] = (failed / attempted, "ratio")

    print("batches: %d (%d traced), setup repeats: %d, batch wall s: %s, host slowdown: %.3f" % (
        len(batches), sum(b["traced"] for b in batches), len(setup_times),
        " ".join("%.3f" % b["batch_wall_s"] for b in batches),
        sampler.slowdown() if sampler.samples else float("nan")))
    for name, value in end_to_end.items():
        print("%-28s %14.6f %s" % (name, value, END_TO_END_UNITS[name]))
    for name, (value, unit) in named.items():
        print("%-28s %14.6f %s" % (name, value, unit))
    print("failed_ratio base: %d failed of %d attempted %s" % (
        failed, attempted, workload.attempted_base))

    report = {
        "workload": args.workload,
        "environment": environment,
        "correct": correct,
        "check_failure": reason,
        "attempted": attempted,
        "failed": failed,
        "attempted_base": workload.attempted_base,
        "setup_times_s": setup_times,
        "batches": batches,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    if args.trace:
        metrics = tracing.layer_metrics(spans)
        metrics.update({k: {"value": v, "unit": u} for k, (v, u) in layers.items()})
        traced_batch = [b["batch_s"] for b in batches if b["traced"]]
        overhead = statistics.median(traced_batch) - end_to_end["batch_s"] if traced_batch else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, metric in metrics.items():
            print("%-28s %14.6f %s" % (name, metric["value"], metric["unit"]))
        with open(os.path.join(results_dir, stem + "-spans.json"), "w") as fh:
            json.dump(spans, fh)
        _write_layer_table(os.path.join(results_dir, stem + "-layers.tsv"), spans)
        report["per_layer"] = metrics
    else:
        metrics = report["end_to_end"]
    with open(os.path.join(results_dir, stem + ".json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
