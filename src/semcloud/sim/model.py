"""Cluster, cost model, and trace data types."""

import collections
import dataclasses
import functools
import heapq
import itertools
import math
import operator

MB = 2**20
MAX_NOISE_AMPLITUDE = 0.5


@dataclasses.dataclass(frozen=True)
class NodeSpec:
    name: str
    node_memory: float = 128.0  # MB
    node_storage: float = 4096.0  # MB


@dataclasses.dataclass(frozen=True)
class ClusterSpec:
    nodes: tuple
    queue_latency: float = 0.02  # s per message hop

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("cluster needs at least one node")


def default_cluster(node_count=7, node_memory=128.0, node_storage=4096.0):
    nodes = tuple(
        NodeSpec("node%d" % (i + 1), node_memory, node_storage)
        for i in range(node_count)
    )
    return ClusterSpec(nodes=nodes)


def legacy_node():
    return NodeSpec("legacy", 8192.0, 65536.0)


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Analytic stand-in for measured step behaviour.

    Throughputs are records/s; memories are affine in the records held
    in flight (MB); storage factors expand the input volume.  Noise is
    multiplicative and seeded; amplitude 0 gives exact determinism.
    """

    thr_retrieve: float = 20000.0
    thr_slice: float = 10000.0
    thr_prepare: float = 2000.0  # the bottleneck step
    thr_store: float = 20000.0
    join_overhead: float = 0.05  # s per slice, the cross-pipeline lookup
    alpha_slice: float = 3.0  # MB per in-flight chunk MB
    beta_slice: float = 64.0  # MB
    alpha_prepare: float = 5.0  # MB per in-flight slice MB
    beta_prepare: float = 96.0  # MB
    retrieve_memory: float = 48.0  # MB
    store_memory: float = 48.0  # MB
    expansion_slice: float = 1.0
    expansion_prepare: float = 1.3
    expansion_store: float = 1.1
    legacy_kappa: float = 2.0  # MB retained per MB processed
    legacy_factor: float = 1.2  # integration overhead of the monolith
    restart_penalty: float = 1.0  # fraction of elapsed phase time
    safety_margin: float = 1.05  # default reservation over working set
    cpu_per_instance: float = 1000.0  # millicores while busy
    max_prepare_instances: int = 8
    noise_amplitude: float = 0.0

    def __post_init__(self):
        for name in ("thr_retrieve", "thr_slice", "thr_prepare", "thr_store"):
            if not getattr(self, name) > 0.0:
                raise ValueError("%s must be positive" % name)
        if not 0.0 <= self.noise_amplitude <= MAX_NOISE_AMPLITUDE:
            raise ValueError("noise amplitude must be in [0, %r]" % MAX_NOISE_AMPLITUDE)

    def slice_working_mb(self, nc, record_bytes):
        return self.alpha_slice * nc * record_bytes / MB + self.beta_slice

    def prepare_working_mb(self, ns, record_bytes):
        return self.alpha_prepare * ns * record_bytes / MB + self.beta_prepare


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    n_records: int
    record_bytes: int
    machines: int = 45
    pipeline: str = "p1"

    @property
    def volume_mb(self):
        return self.n_records * self.record_bytes / MB

    @classmethod
    def from_spec(cls, spec):
        return cls(
            n_records=spec.total_records(),
            record_bytes=spec.record_bytes,
            machines=spec.machines,
        )


@dataclasses.dataclass(frozen=True)
class StepInstance:
    step: str  # retrieve | slice | prepare | store
    index: int
    node: str
    reservation_mb: float
    working_mb: float


@dataclasses.dataclass
class QueueChannel:
    name: str
    published: int


class RunTrace:
    """One run as the messages its step instances served, plus its totals.

    ``steps`` lists, per step, ``(instances, picks, starts, ends)``: the
    instances as (node, mem_mb, cpu) triples, and per message the index of
    the instance that served it, its start and its end.  An instance serves
    its messages one after another.  ``consumed_time`` (the last end) and
    ``cpu_integral`` are set when the trace is made; ``times`` (the
    distinct boundaries, ascending) and ``peak_memory`` (the highest level
    of each node that served a message) are kept by the first sweep that
    runs to the end: ``write_trace``'s, or one made when either is read.
    """

    def __init__(self, steps, step_windows, channels=(), restarts=0):
        self.steps = steps
        self.step_windows = step_windows  # step -> (start, end)
        self.consumed_time = max((max(ends) for *_, ends in steps if ends), default=0.0)
        # fsum is exactly rounded, so the order of the terms does not matter
        self.cpu_integral = math.fsum(  # millicore*s
            (end - start) * instances[i][2] for instances, picks, starts, ends in steps
            for i, start, end in zip(picks, starts, ends))
        self.channels = list(channels)
        self.restarts = restarts

    @functools.cached_property
    def _levels(self):
        collections.deque(_sweep(self)[1], maxlen=0)
        return vars(self)["_levels"]  # the sweep kept them when it ended

    @property
    def times(self):
        return self._levels[0]

    @property
    def peak_memory(self):  # node -> MB
        return self._levels[1]


def _boundaries(messages, first, starts, ends, node, mem, cpu):
    """One instance's (time, order, node, d_mem, d_cpu) events, ascending;
    the run's message k starts at order 2k and ends at 2k + 1."""
    for j in messages:
        order = 2 * (first + j)
        yield starts[j], order, node, mem, cpu
        yield ends[j], order + 1, node, -mem, -cpu


def _sweep(trace):
    """The nodes that served a message, sorted, and an iterator that yields
    (time, changed, mem, cpu) once per distinct boundary, ascending.

    Merging the instances' events by (time, order) gives the order of a
    stable sort by time.  ``mem`` and ``cpu`` map each of the nodes to its
    level after all changes at that boundary; they are the same dicts on
    each yield, updated in place, so read them before advancing.
    ``changed`` lists the nodes whose levels changed there.  When the
    iterator ends, the trace keeps the boundaries and each node's highest
    level as its ``times`` and ``peak_memory``.
    """
    streams, nodes, first = [], set(), 0
    for instances, picks, starts, ends in trace.steps:
        served = [[] for _ in instances]
        for j, i in enumerate(picks):
            served[i].append(j)
        for (node, mem, cpu), messages in zip(instances, served):
            if messages:
                streams.append(_boundaries(messages, first, starts, ends, node, mem, cpu))
                nodes.add(node)
        first += len(picks)
    nodes = sorted(nodes)
    return nodes, _levels_at(heapq.merge(*streams), nodes, trace)


def _levels_at(events, nodes, trace):
    mem = dict.fromkeys(nodes, 0.0)
    cpu = dict.fromkeys(nodes, 0.0)
    times, peak = [], dict.fromkeys(nodes, 0.0)
    for t, changes in itertools.groupby(events, key=operator.itemgetter(0)):
        changed = []
        for _, _, node, dm, dc in changes:
            mem[node] += dm
            cpu[node] += dc
            changed.append(node)
        times.append(t)
        for node in changed:
            if mem[node] > peak[node]:
                peak[node] = mem[node]
        yield t, changed, mem, cpu
    trace._levels = times, peak


def write_trace(path, trace):
    """Write the per-node memory/cpu step series of a trace as TSV.

    Columns are ``time``, ``mem_<node>`` and ``cpu_<node>`` for the
    nodes that served a message, in name order.  Each boundary gives two
    rows, the levels just before and just after its changes, so the
    trapezoidal integral of a column over ``time`` is the exact integral
    of the step function.  The "before" row is the previous "after" row,
    and only the cells of the nodes that changed at a boundary are
    formatted again.
    """
    nodes, boundaries = _sweep(trace)
    column = {node: j for j, node in enumerate(nodes)}
    width = len(nodes)
    header = ["time"]
    header += ["mem_%s" % n for n in nodes]
    header += ["cpu_%s" % n for n in nodes]
    cells = ["0.0"] * 2 * width
    before = "\t".join(cells)
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for t, changed, mem, cpu in boundaries:
            for node in set(changed):
                j = column[node]
                cells[j] = repr(mem[node])
                cells[width + j] = repr(cpu[node])
            after = "\t".join(cells)
            stamp = repr(t)
            fh.write("%s\t%s\n%s\t%s\n" % (stamp, before, stamp, after))
            before = after
