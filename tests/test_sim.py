"""Simulator: placement, execution traces, legacy baseline, comparisons."""

import dataclasses
import hashlib
import math
import random

import pytest
from oracle import intervals_of, per_message_run, trace_of

import semcloud.sim.model
from semcloud.kg import frequent_pipeline
from semcloud.learning import PilotRunRecord, write_pilot_csv
from semcloud.sim import (
    ClusterSpec,
    CostModel,
    ExecutionPlan,
    InsufficientResources,
    NodeSpec,
    SimWorkload,
    SimulatedOutOfMemory,
    StepInstance,
    collect_pilot_stats,
    compare,
    default_cluster,
    deploy,
    legacy_node,
    run,
    run_legacy,
    write_trace,
)


def quiet_cost(**overrides):
    return CostModel(noise_amplitude=0.0, **overrides)


def small_workload(n=500, rb=1250):
    return SimWorkload(n_records=n, record_bytes=rb, machines=5)


class TestDeploy:
    def test_reservations_default_to_margin_over_working(self):
        cost = quiet_cost()
        plan = deploy(None, default_cluster(), cost, small_workload(),
                      nc=100, ns=10)
        slice_inst = plan.step_instances("slice")[0]
        assert slice_inst.reservation_mb == pytest.approx(
            cost.slice_working_mb(100, 1250) * cost.safety_margin)
        assert slice_inst.working_mb <= slice_inst.reservation_mb

    def test_prepare_instance_count_from_time_ratio(self):
        cost = quiet_cost()
        cluster = default_cluster()
        # default rule of thumb: thr_slice / thr_prepare = 5
        plan = deploy(None, cluster, cost, small_workload(), nc=100, ns=10)
        assert plan.prepare_instances == round(cost.thr_slice / cost.thr_prepare)
        explicit = deploy(None, cluster, cost, small_workload(),
                          prepare_instances=3, nc=100, ns=10)
        assert explicit.prepare_instances == 3
        big = ClusterSpec(nodes=(legacy_node(),))
        capped = deploy(None, big, cost, small_workload(),
                        prepare_instances=99, nc=100, ns=10)
        assert capped.prepare_instances == cost.max_prepare_instances

    def test_placement_respects_node_memory(self):
        cost = quiet_cost()
        plan = deploy(None, default_cluster(), cost, small_workload(),
                      nc=500, ns=500)
        used = {}
        for inst in plan.instances:
            used[inst.node] = used.get(inst.node, 0.0) + inst.reservation_mb
        assert all(total <= 128.0 for total in used.values())

    def test_single_big_node_colocates_everything(self):
        cluster = ClusterSpec(nodes=(legacy_node(),))
        plan = deploy(None, cluster, quiet_cost(), small_workload(),
                      nc=100, ns=10)
        assert len({inst.node for inst in plan.instances}) == 1

    def test_insufficient_memory_raises(self):
        tiny = ClusterSpec(nodes=(NodeSpec("n1", 8.0, 4096.0),))
        with pytest.raises(InsufficientResources) as exc:
            deploy(None, tiny, quiet_cost(), small_workload(), nc=500, ns=500)
        assert exc.value.reservation_mb > exc.value.best_free_mb

    def test_bad_slicing_parameters_rejected(self):
        with pytest.raises(ValueError):
            deploy(None, default_cluster(), quiet_cost(), small_workload(),
                   nc=10, ns=20)

    @staticmethod
    def greedy_nodes(cluster, instances):
        """The node of each instance under the greedy rule, written plainly:
        largest reservation first, each on the node with the most free
        memory, the larger name on a tie; or the InsufficientResources
        arguments of the first that does not fit."""
        free = {node.name: node.node_memory for node in cluster.nodes}
        nodes = {}
        for inst in sorted(instances, key=lambda i: (-i.reservation_mb, i.step, i.index)):
            node = max(free, key=lambda name: (free[name], name))
            if inst.reservation_mb > free[node]:
                return (inst.step, inst.reservation_mb, free[node])
            free[node] -= inst.reservation_mb
            nodes[inst.step, inst.index] = node
        return nodes

    @pytest.mark.parametrize("seed", range(40))
    def test_placement_matches_the_greedy_rule(self, seed):
        # random names (so "n10" sorts before "n9"), equal and unequal
        # node memories, and clusters too small for some plans
        gen = random.Random(seed)
        names = gen.sample(["n%d" % i for i in range(60)] + ["a", "b", "zz"], gen.randint(1, 40))
        memories = gen.choice([[128.0], [64.0, 128.0, 256.0], None])
        cluster = ClusterSpec(nodes=tuple(
            NodeSpec(name, gen.choice(memories) if memories else gen.uniform(8.0, 400.0))
            for name in names))
        cost = quiet_cost()
        workload = small_workload(n=gen.randint(1, 1500), rb=gen.choice([125, 1250, 5000]))
        nc = gen.randint(1, workload.n_records)
        args = dict(prepare_instances=gen.randint(1, 8), nc=nc, ns=gen.randint(1, nc))
        # the reservations do not depend on the cluster
        wanted = deploy(None, ClusterSpec(nodes=(NodeSpec("all", 1e12),)), cost, workload,
                        **args).instances
        expected = self.greedy_nodes(cluster, wanted)
        if isinstance(expected, tuple):
            with pytest.raises(InsufficientResources) as exc:
                deploy(None, cluster, cost, workload, **args)
            assert (exc.value.step, exc.value.reservation_mb, exc.value.best_free_mb) == expected
        else:
            plan = deploy(None, cluster, cost, workload, **args)
            assert {(i.step, i.index): i.node for i in plan.instances} == expected


class TestRun:
    def test_deterministic_for_a_seed(self):
        cost = CostModel(noise_amplitude=0.05)
        workload = small_workload()
        plan = deploy(None, default_cluster(), cost, workload, nc=100, ns=10)
        t1, r1 = run(plan, workload, cost, seed=7)
        t2, r2 = run(plan, workload, cost, seed=7)
        assert t1.consumed_time == t2.consumed_time
        assert t1.peak_memory == t2.peak_memory
        assert r1 == r2
        t3, _ = run(plan, workload, cost, seed=8)
        assert t3.consumed_time != t1.consumed_time

    def test_queue_conservation(self):
        cost = quiet_cost()
        workload = small_workload(n=530)
        plan = deploy(None, default_cluster(), cost, workload, nc=100, ns=7)
        trace, _ = run(plan, workload, cost)
        by_name = {c.name: c for c in trace.channels}
        assert by_name["chunks"].published == math.ceil(530 / 100)
        slices = sum(math.ceil(size / 7) for size in [100] * 5 + [30])
        assert by_name["slices"].published == slices
        assert by_name["prepared"].published == slices

    def test_oom_restart_penalty(self):
        cost = quiet_cost()
        workload = small_workload()
        plan = deploy(None, default_cluster(), cost, workload, nc=100, ns=10)
        base, _ = run(plan, workload, cost)
        assert base.restarts == 0
        # shrink the slice reservation below its working set
        instances = tuple(
            dataclasses.replace(inst, reservation_mb=inst.working_mb * 0.5)
            if inst.step == "slice" else inst
            for inst in plan.instances
        )
        broken = dataclasses.replace(plan, instances=instances)
        trace, _ = run(broken, workload, cost)
        assert trace.restarts == 1
        assert trace.consumed_time > base.consumed_time

    def test_more_preparers_shrink_the_prepare_window(self):
        cost = quiet_cost()
        workload = small_workload(n=2000)
        cluster = default_cluster()
        one = deploy(None, cluster, cost, workload, prepare_instances=1,
                     nc=2000, ns=50)
        four = deploy(None, cluster, cost, workload, prepare_instances=4,
                      nc=2000, ns=50)
        t1, _ = run(one, workload, cost)
        t4, _ = run(four, workload, cost)
        w1 = t1.step_windows["prepare"]
        w4 = t4.step_windows["prepare"]
        assert (w4[1] - w4[0]) < 0.5 * (w1[1] - w1[0])

    def test_empty_workload(self):
        cost = quiet_cost()
        workload = small_workload(n=0)
        plan = deploy(None, default_cluster(), cost, workload, nc=10, ns=5)
        trace, record = run(plan, workload, cost)
        assert trace.consumed_time == 0.0
        assert record.chunk_size == 0.0 and record.slice_size == 0.0

    def test_noisy_run_with_a_restart_is_golden(self):
        # Pins the exact output of one noisy run across refactors of the
        # engine: the RNG draw order, the instance choice and the restart.
        cost = CostModel(noise_amplitude=0.05)
        workload = small_workload(n=530)
        plan = deploy(None, default_cluster(), cost, workload, prepare_instances=3,
                      nc=100, ns=7)
        instances = tuple(
            dataclasses.replace(inst, reservation_mb=inst.reservation_mb / 2)
            if inst.step == "slice" else inst
            for inst in plan.instances
        )
        trace, record = run(dataclasses.replace(plan, instances=instances), workload,
                            cost, seed=20261018)
        intervals = intervals_of(trace)
        assert len(intervals) == 172
        assert hashlib.sha256(repr(intervals).encode()).hexdigest() == (
            "a45f53b859d148aa47069e6307489c04684dd8419180f679069b7f10d1bc93e5")
        assert trace.step_windows == {
            "retrieve": (0.0, 0.026533484270502235),
            "slice": (0.025146504014014262, 0.08792575797442073),
            "prepare": (0.06522355792456298, 1.513623747383113),
            "store": (0.14032959023975095, 1.5340675659382952),
        }
        assert [(c.name, c.published) for c in trace.channels] == [
            ("chunks", 6), ("slices", 80), ("prepared", 80)]
        assert trace.restarts == 1
        assert record == PilotRunRecord(
            pipeline="p1", no_records=530.0, volume=0.6318092346191406,
            chunk_size=100.0, slice_size=7.0, slice_time=0.06277925396040647,
            prepare_time=1.4484001894585499, slice_memory=66.08124496604978,
            prepare_memory=99.63000749903607, slice_storage=0.6140610986771233,
            prepare_storage=0.794059303941559, store_storage=0.6686098842496914,
            slice_memory_reservation=33.78775463104248,
            prepare_memory_reservation=100.84380941390992, storage_mode="fast",
            total_time=1.5340675659382952, cpu_integral=4403.587921528562,
            kind="configuration")

    def test_pilot_record_is_valid(self):
        cost = CostModel(noise_amplitude=0.05)
        workload = small_workload()
        plan = deploy(None, default_cluster(), cost, workload, nc=100, ns=10)
        _, record = run(plan, workload, cost, seed=1, kind="configuration")
        assert record.violations() == []
        assert record.kind == "configuration"
        assert record.chunk_size == 100.0
        assert record.total_time >= max(record.slice_time, record.prepare_time)


def _random_plan(gen):
    """A random plan, workload and cost: noise on or off, n = 0, n < nc,
    ns = 1, 1 to 8 preparers, and now and then a slice or prepare
    reservation below its working set, so that the instance restarts."""
    n = gen.choice([0, gen.randint(1, 40), gen.randint(1, 1500)])
    nc = gen.randint(1, 2 * n + 2) if gen.random() < 0.2 else gen.randint(1, max(1, n))
    ns = 1 if gen.random() < 0.2 else gen.randint(1, nc)
    cost = CostModel(
        noise_amplitude=gen.choice([0.0, 0.05, 0.5]),
        thr_prepare=gen.choice([500.0, 2000.0, 7000.0]),
        join_overhead=gen.choice([0.0, 0.05]),
        restart_penalty=gen.choice([0.5, 1.0]),
    )
    cluster = ClusterSpec(nodes=tuple(NodeSpec("n%d" % i, 4096.0) for i in range(4)),
                          queue_latency=gen.choice([0.0, 0.02]))
    workload = small_workload(n=n, rb=gen.choice([125, 1250]))
    plan = deploy(None, cluster, cost, workload, prepare_instances=gen.randint(1, 8),
                  nc=nc, ns=ns)
    shrunk = {step for step in ("slice", "prepare") if gen.random() < 0.3}
    instances = tuple(
        dataclasses.replace(inst, reservation_mb=inst.working_mb * gen.uniform(0.3, 0.99))
        if inst.step in shrunk and gen.random() < 0.7 else inst
        for inst in plan.instances)
    return dataclasses.replace(plan, instances=instances), workload, cost


def _outputs(trace, record):
    return (record, trace.step_windows, trace.channels, trace.restarts,
            trace.consumed_time, trace.cpu_integral, repr(intervals_of(trace)),
            trace.times, trace.peak_memory)


class TestRunMatchesOracle:
    @pytest.mark.parametrize("block", range(4))
    def test_random_plans_equal_the_per_message_oracle(self, block):
        gen = random.Random(block)
        restarted = 0
        for case in range(100):
            plan, workload, cost = _random_plan(gen)
            seed = gen.randrange(2**32)
            trace, record = run(plan, workload, cost, seed=seed)
            expected = per_message_run(plan, workload, cost, seed=seed)
            assert _outputs(trace, record) == _outputs(*expected), case
            restarted += trace.restarts > 0
        assert restarted > 10

    def test_reseeding_gives_each_seed_its_own_stream(self):
        cost = CostModel(noise_amplitude=0.05)
        workload = small_workload(n=530)
        plan = deploy(None, default_cluster(), cost, workload, prepare_instances=3,
                      nc=100, ns=7)
        first = _outputs(*run(plan, workload, cost, seed=11))
        a1 = _outputs(*run(plan, workload, cost, seed=11))
        b = _outputs(*run(plan, workload, cost, seed=12))
        a2 = _outputs(*run(plan, workload, cost, seed=11))
        assert a1 == first == a2
        assert b != first
        assert b == _outputs(*per_message_run(plan, workload, cost, seed=12))


class TestTrace:
    def test_rectangle_integrals_are_exact(self):
        # one instance at 100 millicores and 10 MB for exactly 2 seconds
        trace = trace_of([(0.0, 2.0, "n1", 10.0, 100.0)], {"only": (0.0, 2.0)})
        assert trace.consumed_time == 2.0
        assert trace.cpu_integral == pytest.approx(200.0)
        assert trace.peak_memory["n1"] == 10.0

    def test_overlapping_intervals_stack(self):
        trace = trace_of(
            [(0.0, 2.0, "n1", 10.0, 100.0), (1.0, 3.0, "n1", 5.0, 50.0)], {})
        assert trace.peak_memory["n1"] == 15.0
        assert trace.cpu_integral == pytest.approx(100 * 2 + 50 * 2)

    def test_empty_trace(self):
        trace = trace_of([], {})
        assert trace.consumed_time == 0.0
        assert trace.cpu_integral == 0.0

    def test_back_to_back_intervals_do_not_stack(self):
        # one interval ends exactly where the next on the same node starts
        trace = trace_of(
            [(0.0, 1.0, "n1", 10.0, 100.0), (1.0, 2.0, "n1", 6.0, 100.0)], {})
        assert trace.peak_memory == {"n1": 10.0}
        assert trace.times == [0.0, 1.0, 2.0]
        assert trace.cpu_integral == 200.0

    def test_written_series_golden(self, tmp_path):
        # node a runs back to back over t=1; a and b both stop at t=2
        trace = trace_of(
            [(0.0, 1.0, "a", 10.0, 100.0), (0.5, 2.0, "b", 4.0, 50.0),
             (1.0, 2.0, "a", 6.0, 100.0)], {})
        path = tmp_path / "trace.tsv"
        write_trace(str(path), trace)
        assert path.read_text() == (
            "time\tmem_a\tmem_b\tcpu_a\tcpu_b\n"
            "0.0\t0.0\t0.0\t0.0\t0.0\n"
            "0.0\t10.0\t0.0\t100.0\t0.0\n"
            "0.5\t10.0\t0.0\t100.0\t0.0\n"
            "0.5\t10.0\t4.0\t100.0\t50.0\n"
            "1.0\t10.0\t4.0\t100.0\t50.0\n"
            "1.0\t6.0\t4.0\t100.0\t50.0\n"
            "2.0\t6.0\t4.0\t100.0\t50.0\n"
            "2.0\t0.0\t0.0\t0.0\t0.0\n"
        )
        assert trace.times == [0.0, 0.5, 1.0, 2.0]
        assert trace.peak_memory == {"a": 10.0, "b": 4.0}

    def test_totals_are_set_before_the_series_is_swept(self):
        intervals = [(0.0, 1.0, "a", 10.0, 100.0), (0.5, 2.0, "b", 4.0, 50.0)]
        trace = trace_of(intervals, {})
        stored = vars(trace)
        assert stored["consumed_time"] == 2.0
        assert stored["cpu_integral"] == 175.0
        assert not {"times", "peak_memory"} & set(stored)
        assert all(not name.startswith("_") for name in stored)

    def test_series_read_before_writing_equal_those_read_after(self, tmp_path):
        cost = CostModel(noise_amplitude=0.05)
        workload = small_workload(n=530)
        plan = deploy(None, default_cluster(), cost, workload, nc=100, ns=7)
        read_first, _ = run(plan, workload, cost, seed=3)
        written_first, _ = run(plan, workload, cost, seed=3)
        times, peaks = list(read_first.times), dict(read_first.peak_memory)
        write_trace(str(tmp_path / "a.tsv"), read_first)
        write_trace(str(tmp_path / "b.tsv"), written_first)
        assert "_levels" in vars(written_first)  # the write's sweep kept them
        assert read_first.times == times == written_first.times
        assert read_first.peak_memory == peaks == written_first.peak_memory
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_written_series_of_a_run_is_golden(self, tmp_path):
        # Pins the bytes simulate writes for a run whose instances serve
        # several messages each: zero noise, three preparers.
        cost = quiet_cost()
        workload = small_workload(n=530)
        plan = deploy(None, default_cluster(), cost, workload, prepare_instances=3,
                      nc=100, ns=7)
        trace, _ = run(plan, workload, cost, seed=5)
        path = tmp_path / "trace.tsv"
        write_trace(str(path), trace)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "f1fdb0137e51f5aa9e16b507bfbc45adb275d346bf28305fa9127c6de611d0ce")

    def test_idle_instances_get_no_column(self, tmp_path):
        # one slice, so one preparer of eight serves; the other seven sit
        # alone on their nodes and must not show up as all-zero columns
        cost = quiet_cost()
        workload = small_workload(n=100)
        plan = deploy(None, default_cluster(9, node_memory=256.0), cost, workload,
                      prepare_instances=8, nc=100, ns=100)
        idle = {inst.node for inst in plan.step_instances("prepare")[1:]}
        busy = {inst.node for inst in plan.instances if inst.step != "prepare"}
        assert len(idle - busy) == 7
        trace, _ = run(plan, workload, cost)
        path = tmp_path / "trace.tsv"
        write_trace(str(path), trace)
        assert path.read_text().splitlines()[0] == (
            "time\tmem_node1\tmem_node9\tcpu_node1\tcpu_node9")
        assert list(trace.peak_memory) == ["node1", "node9"]

    def test_a_trace_has_one_form(self):
        cost = quiet_cost()
        workload = small_workload(n=530)
        plan = deploy(None, default_cluster(), cost, workload, nc=100, ns=7)
        trace, _ = run(plan, workload, cost)
        instances, picks, starts, ends = trace.steps[2]
        assert len(instances) == plan.prepare_instances
        assert len(picks) == len(starts) == len(ends) == 80
        assert not hasattr(trace, "intervals")
        assert not hasattr(semcloud.sim, "build_trace")
        assert not hasattr(semcloud.sim.model, "build_trace")

    def test_written_series_agree_with_totals(self, tmp_path):
        cost = CostModel(noise_amplitude=0.05)
        workload = small_workload(n=530)
        plan = deploy(None, default_cluster(), cost, workload, nc=100, ns=7)
        trace, _ = run(plan, workload, cost, seed=3)
        path = tmp_path / "trace.tsv"
        write_trace(str(path), trace)
        header, *rows = [line.split("\t") for line in path.read_text().splitlines()]
        columns = {name: [float(row[j]) for row in rows]
                   for j, name in enumerate(header)}
        times = columns["time"]
        assert len(times) == 2 * len(trace.times)
        for node, peak in trace.peak_memory.items():
            assert max(columns["mem_" + node]) == peak
        cpu = [sum(vals) for vals in
               zip(*(col for name, col in columns.items() if name.startswith("cpu_")))]
        integral = sum((t1 - t0) * (c0 + c1) / 2.0
                       for t0, t1, c0, c1 in zip(times, times[1:], cpu, cpu[1:]))
        assert integral == pytest.approx(trace.cpu_integral, rel=1e-12)


class TestLegacy:
    def test_closed_form_duration_and_memory(self):
        cost = quiet_cost()
        workload = small_workload(n=1000)
        trace = run_legacy(workload, cost=cost)
        expected = cost.legacy_factor * 1000 * (
            1 / cost.thr_retrieve + 1 / cost.thr_prepare + 1 / cost.thr_store)
        assert trace.consumed_time == pytest.approx(expected)
        peak = max(trace.peak_memory.values())
        base = cost.retrieve_memory + cost.store_memory
        assert peak == pytest.approx(base + cost.legacy_kappa *
                                     workload.volume_mb)

    def test_written_staircase_is_golden(self, tmp_path):
        # the base and the 24 stair segments, one message each
        trace = run_legacy(small_workload(n=1000), cost=quiet_cost())
        path = tmp_path / "trace.tsv"
        write_trace(str(path), trace)
        assert len(path.read_text().splitlines()) == 1 + 2 * 25
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2f871c01c4702528df6610c910028f0f6dfa6849b65c4f9f5de133a2ca040a5f")

    def test_memory_grows_linearly_with_volume(self):
        cost = quiet_cost()
        peaks = []
        volumes = []
        for n in (1000, 2000, 4000):
            workload = small_workload(n=n)
            volumes.append(workload.volume_mb)
            peaks.append(max(run_legacy(workload, cost=cost).peak_memory.values()))
        slope1 = (peaks[1] - peaks[0]) / (volumes[1] - volumes[0])
        slope2 = (peaks[2] - peaks[1]) / (volumes[2] - volumes[1])
        assert slope1 == pytest.approx(slope2)
        assert slope1 == pytest.approx(cost.legacy_kappa)

    def test_cost_is_required(self):
        with pytest.raises(TypeError):
            run_legacy(small_workload(n=1000))
        assert run_legacy(small_workload(n=1000), quiet_cost()).consumed_time > 0.0

    def test_out_of_memory_raises(self):
        # 4e6 records of 1250 bytes hold about 9,600 MB at the legacy peak
        with pytest.raises(SimulatedOutOfMemory, match="exceeds node memory 8192 MB"):
            run_legacy(small_workload(n=4_000_000), cost=quiet_cost())


class TestCompareAndPilots:
    def test_identical_traces_have_unit_ratios(self):
        cost = quiet_cost()
        workload = small_workload()
        plan = deploy(None, default_cluster(), cost, workload, nc=100, ns=10)
        trace, _ = run(plan, workload, cost)
        row, = compare([trace], [trace], [workload.volume_mb])
        assert row.time_ratio == pytest.approx(1.0)
        assert row.memory_ratio == pytest.approx(1.0)
        assert row.cpu_ratio == pytest.approx(1.0)

    def test_row_per_volume(self):
        cost = quiet_cost()
        traces = []
        volumes = []
        for n in (500, 1000):
            workload = small_workload(n=n)
            plan = deploy(None, default_cluster(), cost, workload, nc=100, ns=10)
            traces.append(run(plan, workload, cost)[0])
            volumes.append(workload.volume_mb)
        assert len(compare(traces, traces, volumes)) == 2

    def test_collect_pilot_stats_kinds_and_errors(self):
        cost = CostModel(noise_amplitude=0.05)
        workloads = [small_workload(n=400)]
        records, errors = collect_pilot_stats(
            None, default_cluster(), cost, workloads,
            [None, (100, 10)], seeds=[1, 2])
        assert errors == []
        kinds = [r.kind for r in records]
        assert kinds.count("estimation") == 2
        assert kinds.count("configuration") == 2
        assert all(r.violations() == [] for r in records)
        est = [r for r in records if r.kind == "estimation"][0]
        assert est.chunk_size == 400.0 and est.slice_size == 400.0

    def test_collect_pilot_stats_is_golden(self, tmp_path):
        # Pins every pilot row of a small noisy grid across refactors of
        # the engine: the noise draws, the choice among five preparers and
        # the slice restart (its reservation is below its working set).
        cost = CostModel(noise_amplitude=0.05)
        graph = frequent_pipeline()
        graph = dataclasses.replace(graph, tasks=tuple(
            dataclasses.replace(task, memory_reservation=30.0) if task.kind == "Slice"
            else task
            for task in graph.tasks))
        workloads = [small_workload(n=530), small_workload(n=250, rb=625)]
        grid = [None, (100, 7), (530, 53)]
        plan = deploy(graph, default_cluster(), cost, workloads[0], nc=100, ns=7)
        assert plan.prepare_instances == 5
        assert run(plan, workloads[0], cost, seed=1)[0].restarts == 1
        records, errors = collect_pilot_stats(
            graph, default_cluster(), cost, workloads, grid, seeds=[1, 2])
        assert errors == []
        assert len(records) == 12
        write_pilot_csv(records, tmp_path / "pilot.csv")
        assert hashlib.sha256((tmp_path / "pilot.csv").read_bytes()).hexdigest() == (
            "cffae2644f7c2ef424da67eb6fe3cb90492922ea170c3564fc722f08248dceb5")

    def test_collect_pilot_stats_skips_a_grid_entry_that_does_not_fit(self):
        tiny = ClusterSpec(nodes=(NodeSpec("n1", 100.0, 4096.0),))
        records, errors = collect_pilot_stats(
            None, tiny, quiet_cost(), [small_workload(n=400)],
            [None, (400, 400)], seeds=[1])
        assert [r.kind for r in records] == ["estimation"]
        assert len(errors) == 1
        entry, n, seed, message = errors[0]
        assert (entry, n, seed) == ((400, 400), 400, 1)
        assert "InsufficientResources" in message

    def test_collect_pilot_stats_deploys_once_per_entry_and_workload(self, monkeypatch):
        from semcloud.sim import engine

        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["nc"])
            return deploy(*args, **kwargs)

        monkeypatch.setattr(engine, "deploy", counting)
        tiny = ClusterSpec(nodes=(NodeSpec("n1", 100.0, 4096.0),))
        records, errors = collect_pilot_stats(
            None, tiny, quiet_cost(), [small_workload(n=400)],
            [None, (400, 400)], seeds=[1, 2, 3])
        assert calls == [400, 400]
        assert len(records) == 3
        assert [(entry, seed) for entry, _, seed, _ in errors] == [
            ((400, 400), 1), ((400, 400), 2), ((400, 400), 3)]

    def test_collect_pilot_stats_lets_a_bug_through(self, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("not a simulation error")

        monkeypatch.setattr("semcloud.sim.engine.run", broken)
        with pytest.raises(KeyError):
            collect_pilot_stats(None, default_cluster(), quiet_cost(),
                                [small_workload(n=400)], [(100, 10)], seeds=[1])
