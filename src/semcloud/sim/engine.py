"""Deterministic event simulation of distributed and legacy executions."""

import dataclasses
import functools
import heapq
import math

from ..pilots import PilotRunRecord
from ..rng import LegacyRandom
from .errors import InsufficientResources, SimError, SimulatedOutOfMemory
from .model import (
    ClusterSpec,
    QueueChannel,
    RunTrace,
    StepInstance,
    legacy_node,
)

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

    # Each instance goes to the node with the most free memory, the larger
    # name on a tie: the top of a heap of (-free, i, name), where i counts
    # the names from the largest down.
    free = {node.name: node.node_memory for node in cluster.nodes}
    heap = [(-free[name], i, name) for i, name in enumerate(sorted(free, reverse=True))]
    heapq.heapify(heap)
    placed = []
    for step, index, reservation, working in sorted(
        wanted, key=lambda w: (-w[2], w[0], w[1])
    ):
        negative_free, order, node = heap[0]
        left = -negative_free
        if reservation > left:
            raise InsufficientResources(step, reservation, left)
        heapq.heapreplace(heap, (reservation - left, order, node))
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


@functools.cache
def _generator():
    """The one generator every run draws its noise from.

    ``run`` reseeds it, which loads the cached MT19937 state of its seed
    (``rng.LegacyRandom``) instead of building a generator for each of a
    pilot's hundreds of runs; it draws numpy's ``RandomState(seed)`` stream.
    """
    return LegacyRandom(0)


def _noise(draw, amp, k):
    """k multiplicative factors ``1 + amp * (2 * draw() - 1)``, the IEEE
    operations of numpy's ``1 + amp * (2 * rand(k) - 1)`` in its order;
    draws nothing when amp is 0."""
    if amp == 0.0:
        return [1.0] * k
    return [1.0 + amp * (2.0 * draw() - 1.0) for _ in range(k)]


def _chunk_sizes(n, nc):
    sizes = [nc] * (n // nc)
    if n % nc:
        sizes.append(n % nc)
    return sizes


def _serve_many(readies, services, pending, penalty):
    """Messages in arrival order, each on the earliest-free instance.

    ``pending[i]`` is True while instance i still owes its restart: its
    first message takes ``penalty`` times as long.  Returns the instance
    picked per message, the starts, the ends, the time the last instance
    frees up, and the number of restarts.
    """
    # the earliest-available instance, lowest index first, is on top
    free = [(0.0, i) for i in range(len(pending))]
    picks, starts, ends, restarts = [], [], [], 0
    for ready, service in zip(readies, services):
        available, i = free[0]
        start = available if available > ready else ready
        if pending[i]:
            service *= penalty
            pending[i] = False
            restarts += 1
        end = start + service
        heapq.heapreplace(free, (end, i))
        picks.append(i)
        starts.append(start)
        ends.append(end)
    return picks, starts, ends, max(available for available, _ in free), restarts


def run(plan, workload, cost, seed=0, kind="configuration"):
    """Execute the plan over the workload; returns (RunTrace, PilotRunRecord).

    Messages flow chunk -> slices -> prepared slices over FIFO channels
    with a fixed latency per hop.  Each step serves its messages in
    arrival order, on the earliest-available of its instances, for
    ``(size / throughput + overhead) * noise`` seconds; an instance whose
    working set exceeds its reservation restarts once, and its first
    message takes ``1 + restart_penalty`` times as long.  Each step keeps
    its messages' instances, starts and ends in three lists, and those
    lists are the trace: ``RunTrace`` sums its totals from them.

    Deterministic for a given integer seed (anything else is a TypeError):
    one noise draw per message, step by step, then five for the record, in
    the order of ``np.random.RandomState(seed).rand()``.  The draws come
    from one generator per process (``_generator``), which each call
    reseeds, so ``run`` is not thread-safe (the package starts no threads).
    """
    rng = _generator()
    rng.seed(seed)
    noise = functools.partial(_noise, rng.random, cost.noise_amplitude)
    lam = plan.cluster.queue_latency
    n = workload.n_records
    cpu = cost.cpu_per_instance
    penalty = 1.0 + cost.restart_penalty
    # (step, records/s, s per message, output channel); slice's output
    # messages are runs of ns records, the others pass their size on.
    steps = (
        ("retrieve", cost.thr_retrieve, 0.0, "chunks"),
        ("slice", cost.thr_slice, 0.0, "slices"),
        ("prepare", cost.thr_prepare, cost.join_overhead, "prepared"),
        ("store", cost.thr_store, 0.0, None),
    )
    sizes = _chunk_sizes(n, plan.nc)
    readies = [0.0] * len(sizes)
    served, windows, channels, restarts = [], {}, [], 0
    for step, thr, overhead, channel in steps:
        specs = sorted(plan.step_instances(step), key=lambda spec: spec.index)
        services = [(size / thr + overhead) * factor
                    for size, factor in zip(sizes, noise(len(sizes)))]
        pending = [spec.working_mb > spec.reservation_mb for spec in specs]
        picks, starts, ends, last, restarted = _serve_many(
            readies, services, pending, penalty)
        restarts += restarted
        if starts:
            # No message starts before the step's first: retrieve's are all
            # ready at 0, slice and prepare receive theirs in arrival order,
            # and a step's earliest-free time only rises.
            windows[step] = (starts[0], last)
        served.append((tuple((spec.node, spec.working_mb, cpu) for spec in specs),
                       picks, starts, ends))
        readies = [end + lam for end in ends]
        if step == "slice":
            cuts = [_chunk_sizes(size, plan.ns) for size in sizes]
            readies = [ready for ready, cut in zip(readies, cuts) for _ in cut]
            sizes = [piece for cut in cuts for piece in cut]
        if channel is not None:
            channels.append(QueueChannel(channel, len(sizes)))

    trace = RunTrace(served, windows, channels=channels, restarts=restarts)

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


def run_legacy(workload, cost):
    """Monolithic baseline on the single ``legacy_node``.

    Retrieve, prepare, and store run sequentially with an integration
    overhead factor; retained memory grows linearly with the processed
    volume (staircase approximation with _LEGACY_SEGMENTS steps).
    """
    node = legacy_node()
    n = workload.n_records
    volume = workload.volume_mb
    duration = cost.legacy_factor * n * (
        1.0 / cost.thr_retrieve + 1.0 / cost.thr_prepare + 1.0 / cost.thr_store
    )
    base = cost.retrieve_memory + cost.store_memory
    peak = base + cost.legacy_kappa * volume
    if peak > node.node_memory:
        raise SimulatedOutOfMemory(
            "legacy peak %.6g MB exceeds node memory %.6g MB"
            % (peak, node.node_memory)
        )
    steps, windows = [], {}
    if duration > 0.0:
        # one message per instance: the base, then each stair to the end
        stair = cost.legacy_kappa * volume / _LEGACY_SEGMENTS
        instances = ((node.name, base, cost.cpu_per_instance),)
        instances += ((node.name, stair, 0.0),) * _LEGACY_SEGMENTS
        starts = [0.0] + [duration * j / _LEGACY_SEGMENTS for j in range(_LEGACY_SEGMENTS)]
        steps.append((instances, list(range(len(instances))), starts,
                      [duration] * len(instances)))
        windows = {"legacy": (0.0, duration)}
    return build_trace(steps, windows)


def build_trace(steps, step_windows):
    """``RunTrace(steps, step_windows)`` for ``run_legacy`` only: the
    benchmark's span recorder (``bench/tracer.py``) wraps this attribute
    to count legacy traces as ``sim.build_trace``, and ``run`` makes its
    trace directly.  It goes when the spans move into the package."""
    return RunTrace(steps, step_windows)


@dataclasses.dataclass(frozen=True)
class ComparisonRow:
    """One volume of the legacy-vs-distributed comparison; the fields name
    the ``comparison.tsv`` columns, and each ratio is distributed / legacy."""

    volume: float
    time_legacy: float
    time_distributed: float
    time_ratio: float
    mem_legacy: float
    mem_distributed: float
    memory_ratio: float
    cpu_legacy: float
    cpu_distributed: float
    cpu_ratio: float


def _ratio(b, a):
    return b / a if a else math.inf


def compare(legacy_traces, distributed_traces, volumes):
    """One ComparisonRow per volume: time, peak memory and cpu of each run."""
    rows = []
    for legacy, distributed, volume in zip(legacy_traces, distributed_traces, volumes):
        mem_legacy = max(legacy.peak_memory.values(), default=0.0)
        mem_distributed = max(distributed.peak_memory.values(), default=0.0)
        rows.append(
            ComparisonRow(
                volume=volume,
                time_legacy=legacy.consumed_time,
                time_distributed=distributed.consumed_time,
                time_ratio=_ratio(distributed.consumed_time, legacy.consumed_time),
                mem_legacy=mem_legacy,
                mem_distributed=mem_distributed,
                memory_ratio=_ratio(mem_distributed, mem_legacy),
                cpu_legacy=legacy.cpu_integral,
                cpu_distributed=distributed.cpu_integral,
                cpu_ratio=_ratio(distributed.cpu_integral, legacy.cpu_integral),
            )
        )
    return tuple(rows)


def collect_pilot_stats(pipeline, cluster, cost, workloads, grid, seeds):
    """Gather PilotRunRecords over a configuration grid.

    grid entries are either None (canonical estimation run: single legacy
    node, unsliced, one prepare instance) or (nc, ns) pairs clamped to
    the workload size.  One record per (entry, seed, workload).  The
    plan does not depend on the seed, so each (entry, workload) is
    deployed once; when that raises a SimError (a grid entry that does
    not fit the cluster), its rows are skipped and reported in the error
    list, one per seed.  Any other exception is a bug and propagates.
    """
    estimation_cluster = ClusterSpec(nodes=(legacy_node(),), queue_latency=cluster.queue_latency)
    records, errors = [], []
    for entry in grid:
        for workload in workloads:
            n = workload.n_records
            if entry is None:
                on_cluster, prepare_instances, kind = estimation_cluster, 1, "estimation"
                nc = ns = n
            else:
                nc = max(1, min(int(entry[0]), n))
                ns = max(1, min(int(entry[1]), nc))
                on_cluster, prepare_instances, kind = cluster, None, "configuration"
            try:
                plan = deploy(pipeline, on_cluster, cost, workload,
                              prepare_instances=prepare_instances, nc=nc, ns=ns)
            except SimError as exc:  # keep going entry by entry
                errors += [(entry, n, seed, repr(exc)) for seed in seeds]
                continue
            for seed in seeds:
                records.append(run(plan, workload, cost, seed=seed, kind=kind)[1])
    return records, errors
