"""Deterministic event simulation of distributed and legacy executions."""

import dataclasses
import math

import numpy as np

from ..learning.pilots import PilotRunRecord
from .errors import InsufficientResources, SimError, SimulatedOutOfMemory
from .model import ClusterSpec, QueueChannel, StepInstance, build_trace, legacy_node

# Steps of the staircase that approximates the legacy run's memory growth.
_LEGACY_SEGMENTS = 24


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    pipeline: str
    nc: int
    ns: int
    storage_mode: str
    instances: tuple
    cluster: object
    prepare_instances: int

    def step_instances(self, step):
        return [inst for inst in self.instances if inst.step == step]


def _pipeline_config(pipeline, workload):
    """Pull (nc, ns, mrs, mrp, ts, tp, mode) out of a configured graph."""
    nc = ns = mrs = mrp = ts = tp = None
    mode = "fast"
    if pipeline is not None:
        for task in pipeline.tasks_of_kind("Slice"):
            nc = task.chunk_size if task.chunk_size is not None else nc
            ns = task.slice_size if task.slice_size is not None else ns
            mrs = task.memory_reservation
            ts = task.required_time
        for task in pipeline.tasks_of_kind("Prepare"):
            if mrp is None:
                mrp = task.memory_reservation
            if tp is None:
                tp = task.required_time
        for task in pipeline.tasks_of_kind("Store"):
            if task.storage_mode is not None:
                mode = task.storage_mode
    if nc is None:
        nc = workload.n_records
    if ns is None:
        ns = nc
    return nc, ns, mrs, mrp, ts, tp, mode


def deploy(pipeline, cluster, cost, workload, prepare_instances=None, nc=None, ns=None):
    """Place step instances on cluster nodes; deterministic greedy bin-pack.

    The prepare-instance count defaults to the slice/prepare duration
    ratio (rule of thumb: give the bottleneck step the extra instances),
    clamped to [1, max_prepare_instances].
    """
    p_nc, p_ns, mrs, mrp, ts, tp, mode = _pipeline_config(pipeline, workload)
    nc = int(nc if nc is not None else p_nc)
    ns = int(ns if ns is not None else p_ns)
    if not 1 <= ns <= nc:
        raise ValueError("need 1 <= ns <= nc, got nc=%s ns=%s" % (nc, ns))
    slice_working = cost.slice_working_mb(nc, workload.record_bytes)
    prepare_working = cost.prepare_working_mb(ns, workload.record_bytes)
    if mrs is None:
        mrs = slice_working * cost.safety_margin
    if mrp is None:
        mrp = prepare_working * cost.safety_margin

    if prepare_instances is None:
        if ts and tp:
            ratio = tp / ts
        else:
            ratio = cost.thr_slice / cost.thr_prepare
        prepare_instances = int(round(ratio))
    prepare_instances = max(1, min(cost.max_prepare_instances, prepare_instances))

    wanted = [("retrieve", 0, cost.retrieve_memory, cost.retrieve_memory)]
    wanted.append(("slice", 0, mrs, slice_working))
    for i in range(prepare_instances):
        wanted.append(("prepare", i, mrp, prepare_working))
    wanted.append(("store", 0, cost.store_memory, cost.store_memory))

    free = {node.name: node.node_memory for node in cluster.nodes}
    placed = []
    for step, index, reservation, working in sorted(
        wanted, key=lambda w: (-w[2], w[0], w[1])
    ):
        node = max(free, key=lambda name: (free[name], name))
        if reservation > free[node]:
            raise InsufficientResources(step, reservation, free[node])
        free[node] -= reservation
        placed.append(StepInstance(step, index, node, reservation, working))
    placed.sort(key=lambda inst: (inst.step, inst.index))
    return ExecutionPlan(
        pipeline=pipeline.id if pipeline is not None else workload.pipeline,
        nc=nc,
        ns=ns,
        storage_mode=mode,
        instances=tuple(placed),
        cluster=cluster,
        prepare_instances=prepare_instances,
    )


class _Instance:
    def __init__(self, spec, penalty_fraction):
        self.spec = spec
        self.available_at = 0.0
        self.oomed = spec.working_mb > spec.reservation_mb
        self.penalty_fraction = penalty_fraction if self.oomed else 0.0
        self.penalized = False

    def process(self, ready_at, service, intervals, restarts, cpu):
        start = max(ready_at, self.available_at)
        if self.oomed and not self.penalized:
            # working set over reservation: the step restarts once and
            # the elapsed phase time is paid again
            service *= 1.0 + self.penalty_fraction
            self.penalized = True
            restarts[0] += 1
        end = start + service
        self.available_at = end
        intervals.append((start, end, self.spec.node, self.spec.working_mb, cpu))
        return end


def _pick(instances):
    return min(instances, key=lambda inst: (inst.available_at, inst.spec.index))


def _chunk_sizes(n, nc):
    sizes = [nc] * (n // nc)
    if n % nc:
        sizes.append(n % nc)
    return sizes


def run(plan, workload, cost, seed=None, kind="configuration"):
    """Execute the plan over the workload; returns (RunTrace, PilotRunRecord).

    Messages flow chunk -> slices -> prepared slices over FIFO channels
    with a fixed latency per hop.  Deterministic for a given seed.
    """
    rng = np.random.RandomState(cost.noise_seed if seed is None else seed)
    amp = cost.noise_amplitude

    def noise():
        if amp == 0.0:
            return 1.0
        return 1.0 + amp * (2.0 * rng.rand() - 1.0)

    lam = plan.cluster.queue_latency
    n = workload.n_records
    by_step = {"retrieve": [], "slice": [], "prepare": [], "store": []}
    restarts = [0]
    cpu = cost.cpu_per_instance
    channels = [
        QueueChannel("chunks"),
        QueueChannel("slices"),
        QueueChannel("prepared"),
    ]
    chunks_q, slices_q, prepared_q = channels

    retrieve = _Instance(plan.step_instances("retrieve")[0], cost.restart_penalty)
    slicer = _Instance(plan.step_instances("slice")[0], cost.restart_penalty)
    preparers = [
        _Instance(spec, cost.restart_penalty)
        for spec in plan.step_instances("prepare")
    ]
    storer = _Instance(plan.step_instances("store")[0], cost.restart_penalty)

    # retrieve: one message per chunk
    chunk_ready = []
    for size in _chunk_sizes(n, plan.nc):
        end = retrieve.process(
            0.0, size / cost.thr_retrieve * noise(), by_step["retrieve"], restarts, cpu
        )
        chunk_ready.append((size, end + lam))
        chunks_q.published += 1

    # slice: consumes chunks in order, emits per-slice messages
    slice_ready = []
    for size, ready in chunk_ready:
        chunks_q.delivered += 1
        end = slicer.process(
            ready, size / cost.thr_slice * noise(), by_step["slice"], restarts, cpu
        )
        chunks_q.acknowledged += 1
        for piece in _chunk_sizes(size, plan.ns):
            slice_ready.append((piece, end + lam))
            slices_q.published += 1

    # prepare: k instances, earliest-available wins, FIFO per channel
    prepared_ready = []
    for size, ready in slice_ready:
        slices_q.delivered += 1
        inst = _pick(preparers)
        service = (size / cost.thr_prepare + cost.join_overhead) * noise()
        end = inst.process(ready, service, by_step["prepare"], restarts, cpu)
        slices_q.acknowledged += 1
        prepared_ready.append((size, end + lam))
        prepared_q.published += 1

    # store
    for size, ready in prepared_ready:
        prepared_q.delivered += 1
        storer.process(
            ready, size / cost.thr_store * noise(), by_step["store"], restarts, cpu
        )
        prepared_q.acknowledged += 1

    volume = workload.volume_mb
    storage = {
        "slice": cost.expansion_slice * volume,
        "prepare": cost.expansion_prepare * volume,
        "store": cost.expansion_store * volume,
    }
    windows = {
        step: (min(s for s, *_ in spans), max(e for _, e, *_ in spans))
        for step, spans in by_step.items()
        if spans
    }
    intervals = [iv for step in ("retrieve", "slice", "prepare", "store") for iv in by_step[step]]
    trace = build_trace(intervals, windows, channels)
    trace.restarts = restarts[0]

    ts = _window_len(windows.get("slice"))
    tp = _window_len(windows.get("prepare"))
    rec_nc = min(plan.nc, n) if n else 0
    rec_ns = min(plan.ns, rec_nc) if n else 0
    record = PilotRunRecord(
        pipeline=plan.pipeline,
        no_records=float(n),
        volume=volume,
        chunk_size=float(rec_nc),
        slice_size=float(rec_ns),
        slice_time=ts,
        prepare_time=tp,
        slice_memory=cost.slice_working_mb(plan.nc, workload.record_bytes) * noise(),
        prepare_memory=cost.prepare_working_mb(plan.ns, workload.record_bytes) * noise(),
        slice_storage=storage["slice"] * noise(),
        prepare_storage=storage["prepare"] * noise(),
        store_storage=storage["store"] * noise(),
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


def run_legacy(workload, cost, node=None):
    """Monolithic single-node baseline.

    Retrieve, prepare, and store run sequentially with an integration
    overhead factor; retained memory grows linearly with the processed
    volume (staircase approximation with _LEGACY_SEGMENTS steps).
    """
    node = node or legacy_node()
    n = workload.n_records
    volume = workload.volume_mb
    duration = cost.legacy_factor * n * (
        1.0 / cost.thr_retrieve + 1.0 / cost.thr_prepare + 1.0 / cost.thr_store
    )
    base = cost.retrieve_memory + cost.store_memory
    peak = base + cost.legacy_kappa * volume
    if peak > node.node_memory:
        raise SimulatedOutOfMemory(
            "legacy peak %.1f MB exceeds node memory %.1f MB"
            % (peak, node.node_memory)
        )
    intervals = []
    windows = {}
    if duration > 0.0:
        intervals.append((0.0, duration, node.name, base, cost.cpu_per_instance))
        step = cost.legacy_kappa * volume / _LEGACY_SEGMENTS
        for j in range(_LEGACY_SEGMENTS):
            start = duration * j / _LEGACY_SEGMENTS
            intervals.append((start, duration, node.name, step, 0.0))
        windows = {"legacy": (0.0, duration)}
    return build_trace(intervals, windows)


@dataclasses.dataclass(frozen=True)
class ComparisonRow:
    volume: float
    time_a: float
    time_b: float
    time_ratio: float
    peak_memory_a: float
    peak_memory_b: float
    memory_ratio: float
    cpu_a: float
    cpu_b: float
    cpu_ratio: float


@dataclasses.dataclass(frozen=True)
class ComparisonReport:
    label_a: str
    label_b: str
    rows: tuple


def _ratio(b, a):
    return b / a if a else math.inf


def compare(traces_a, traces_b, volumes, label_a="legacy", label_b="distributed"):
    """Per-volume time/memory/cpu pairs and b/a ratios, plot-ready."""
    rows = []
    for trace_a, trace_b, volume in zip(traces_a, traces_b, volumes):
        mem_a = max(trace_a.peak_memory.values(), default=0.0)
        mem_b = max(trace_b.peak_memory.values(), default=0.0)
        rows.append(
            ComparisonRow(
                volume=volume,
                time_a=trace_a.consumed_time,
                time_b=trace_b.consumed_time,
                time_ratio=_ratio(trace_b.consumed_time, trace_a.consumed_time),
                peak_memory_a=mem_a,
                peak_memory_b=mem_b,
                memory_ratio=_ratio(mem_b, mem_a),
                cpu_a=trace_a.cpu_integral,
                cpu_b=trace_b.cpu_integral,
                cpu_ratio=_ratio(trace_b.cpu_integral, trace_a.cpu_integral),
            )
        )
    return ComparisonReport(label_a, label_b, tuple(rows))


def write_comparison(path, report):
    header = [
        "volume",
        "time_%s" % report.label_a,
        "time_%s" % report.label_b,
        "time_ratio",
        "mem_%s" % report.label_a,
        "mem_%s" % report.label_b,
        "memory_ratio",
        "cpu_%s" % report.label_a,
        "cpu_%s" % report.label_b,
        "cpu_ratio",
    ]
    lines = ["\t".join(header)]
    for row in report.rows:
        lines.append(
            "\t".join(
                repr(v)
                for v in (
                    row.volume,
                    row.time_a,
                    row.time_b,
                    row.time_ratio,
                    row.peak_memory_a,
                    row.peak_memory_b,
                    row.memory_ratio,
                    row.cpu_a,
                    row.cpu_b,
                    row.cpu_ratio,
                )
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def collect_pilot_stats(pipeline, cluster, cost, workloads, grid, seeds):
    """Gather PilotRunRecords over a configuration grid.

    grid entries are either None (canonical estimation run: single legacy
    node, unsliced, one prepare instance) or (nc, ns) pairs clamped to
    the workload size.  One record per (entry, seed, workload); rows
    whose run raises a SimError (a grid entry that does not fit the
    cluster) are skipped and reported in the error list.  Any other
    exception is a bug and propagates.
    """
    estimation_cluster = ClusterSpec(nodes=(legacy_node(),), queue_latency=cluster.queue_latency)
    records, errors = [], []
    for entry in grid:
        for workload in workloads:
            n = workload.n_records
            for seed in seeds:
                try:
                    if entry is None:
                        plan = deploy(
                            pipeline,
                            estimation_cluster,
                            cost,
                            workload,
                            prepare_instances=1,
                            nc=n,
                            ns=n,
                        )
                        _, record = run(plan, workload, cost, seed=seed, kind="estimation")
                    else:
                        nc = max(1, min(int(entry[0]), n))
                        ns = max(1, min(int(entry[1]), nc))
                        plan = deploy(pipeline, cluster, cost, workload, nc=nc, ns=ns)
                        _, record = run(plan, workload, cost, seed=seed, kind="configuration")
                    records.append(record)
                except SimError as exc:  # keep going row by row
                    errors.append((entry, workload.n_records, seed, repr(exc)))
    return records, errors
