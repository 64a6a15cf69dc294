"""``fleet``: 200 distinct frequent pipelines configured against one cloud.

Every pipeline differs in size (n drawn from 500..4000 records at 1250 B)
and shares one cloud and one averaged estimation pilot; the models are
fitted in set-up.  A batch runs two phases:

1. all pipeline documents are parsed into one EDB and the corpus is
   evaluated once (``datalog`` joins and the slicing search dominate);
2. the first 100 pipelines go through ``configure_pipeline`` one at a
   time with a fresh registry (the corpus is parsed on every call and
   batch-only optimisations have nothing to speed up).
"""

import statistics
import time

import numpy as np

import semcloud.configure as configure
import semcloud.datalog as datalog
import semcloud.datalog.corpus as corpus
import semcloud.kg as kg
from common import Workload, check, cold_import
from work_loop import PROJECT, SMOKE_PROJECT
from semcloud.config import ProjectConfig, derive_seed
from semcloud.learning import learn_externals, learn_time_model
from semcloud.sim import MB, SimWorkload, collect_pilot_stats

RECORD_BYTES = 1250
SIZE_RANGE = (500, 4000)
# The quick-start pilot measures 516 and 1032 records; its estimation runs
# are stretched to 4128 records so the fitted models interpolate over the
# fleet's sizes instead of extrapolating up to 4x (a degree-6 polynomial
# out of range flips the rule branch at random, and with it the work).
PILOT_DURATIONS = [43.2, 86.4, 172.8, 344.0]
# The shared cloud has 64 MB nodes, so every pipeline's memory estimate
# (at least the 64 MB slice base) exceeds c1*nm and takes a slicing branch.
# With the 128 MB nodes of the quick-start cloud the estimates of some
# seeds' models fell on either side of the guard, and which pipelines ran
# the slicing search, and so the work, changed with the seed.
CLOUD = {"node_memory": 64.0}


def pilot_records(cfg):
    """The pilot statistics ``semcloud pilot`` collects for ``cfg``."""
    plan = cfg.pilot_plan()
    spec = cfg.workload_spec()
    cluster = cfg.cluster_spec()
    cost = cfg.cost_model(noise_amplitude=float(plan["noise_amplitude"]))
    base = derive_seed(cfg.seed, "pilot")
    est_workloads = [
        SimWorkload(n_records=spec.machines * int(spec.rate * d), record_bytes=rb,
                    machines=spec.machines)
        for d in plan["durations"] for rb in plan["record_bytes"]
    ]
    target = SimWorkload.from_spec(spec)
    grid = list(cfg.search_space(target.n_records).candidates())
    est_seeds = [(base + i) % 2**31 for i in range(int(plan["estimation_seeds"]))]
    conf_seeds = [(base + 101 + i) % 2**31 for i in range(int(plan["configuration_seeds"]))]
    est, err1 = collect_pilot_stats(None, cluster, cost, est_workloads, [None], est_seeds)
    conf, err2 = collect_pilot_stats(None, cluster, cost, [target], grid, conf_seeds)
    check(not err1 and not err2, "fleet: pilot runs failed: %s" % (err1 + err2)[:3])
    return est + conf


def _row(config):
    return (config.chunk_size, config.slice_size, config.storage,
            config.slice_memory_reservation, config.prepare_memory_reservation)


class Fleet(Workload):
    attempted_base = "pipelines configured (batch phase plus one-at-a-time phase)"

    def __init__(self, ctx):
        super().__init__(ctx)
        project = SMOKE_PROJECT if ctx.smoke else PROJECT
        pilot = dict(project["pilot"], durations=PILOT_DURATIONS)
        self.cfg = ProjectConfig(**dict(project, pilot=pilot, cloud=CLOUD, seed=ctx.seed))
        self.count, self.singles = (12, 6) if ctx.smoke else (200, 100)
        self.latencies_ms = []
        self.batch_rows = []

    def setup(self):
        import_s = cold_import(self.ctx)
        started = time.perf_counter()
        records = pilot_records(self.cfg)
        plan = self.cfg.learn_plan()
        self.models, _ = learn_externals(records, methods=tuple(plan["methods"]))
        self.time_model, _ = learn_time_model(records, method=plan["time_method"])
        self.pilot = configure.mean_estimation_pilot(records)
        self.cloud = self.cfg.cloud_attributes()
        rng = np.random.RandomState(derive_seed(self.ctx.seed, "bench/fleet"))
        sizes = rng.choice(np.arange(SIZE_RANGE[0], SIZE_RANGE[1] + 1), self.count, replace=False)
        # The inputs are pipeline documents, as `semcloud configure --pipeline` reads them.
        self.documents = [
            kg.serialize_pipeline(kg.frequent_pipeline(
                "f%03d" % i,
                no_records=float(n),
                volume_mb=float(n) * RECORD_BYTES / MB,
                chunk_size=self.pilot.no_records,
                slice_size=self.pilot.no_records,
                slice_time=self.pilot.slice_time,
                prepare_time=self.pilot.prepare_time,
                memory_reservation=self.pilot.prepare_memory,
                storage_mode="fast",
            ))
            for i, n in enumerate(sizes)
        ]
        return import_s + self.ctx.sampler.ref_s(started, time.perf_counter())

    def _registry(self):
        return configure.build_registry(self.models, self.time_model, self.cfg.search_space)

    def batch(self, index, traced):
        started = time.perf_counter()
        graphs = [kg.parse_pipeline(doc) for doc in self.documents]
        edb = datalog.FactSet()
        for graph in graphs:
            for pred, args in kg.to_facts(graph, cloud=self.cloud, pilot=self.pilot):
                edb.add(pred, args)
        idb = datalog.evaluate(corpus.configuration_program(), edb, self._registry())
        rows = {}
        for pipeline, *values in datalog.query(idb, "configured_resource", 6):
            rows.setdefault(pipeline, []).append(tuple(values))
        configured = []
        for graph in graphs:
            found = rows.get(graph.id, [])
            if len(found) == 1:
                nc, ns, storage, mrs, mrp = found[0]
                config = kg.ResourceConfiguration(graph.id, nc, ns, storage, mrs, mrp)
                configured.append(kg.serialize_pipeline(
                    kg.apply_configuration(graph, config, cloud=self.cloud)))
        batch_done = time.perf_counter()

        singles = {}
        for doc in self.documents[: self.singles]:
            graph = kg.parse_pipeline(doc)
            call_started = time.perf_counter()
            config, _, _ = configure.configure_pipeline(
                graph, self.cloud, self._registry(), self.pilot)
            if not traced:
                call_s = self.ctx.sampler.ref_s(call_started, time.perf_counter())
                self.latencies_ms.append(call_s * 1000.0)
            singles[graph.id] = _row(config)
        finished = time.perf_counter()

        wrong = [g.id for g in graphs if len(rows.get(g.id, [])) != 1]
        check(not wrong, "fleet: pipelines without exactly one configured_resource: %s" % wrong[:5])
        batch_rows = {pipeline: found[0] for pipeline, found in rows.items()}
        differ = [p for p, row in singles.items() if batch_rows.get(p) != row]
        check(not differ, "fleet: batch rows differ from configure_pipeline for %s" % differ[:5])
        check(len(configured) == len(graphs), "fleet: configured documents missing")
        self.batch_rows.append(batch_rows)
        ref_s = self.ctx.sampler.ref_s
        return {
            "batch_s": ref_s(started, finished),
            "batch_wall_s": finished - started,
            "phase1_s": ref_s(started, batch_done),
            "phase2_s": ref_s(batch_done, finished),
            "attempted": len(graphs) + len(singles),
            "failed": len(wrong) + len(differ),
        }

    def finish(self, batches):
        check(all(rows == self.batch_rows[0] for rows in self.batch_rows),
              "fleet: batches configured the fleet differently")
        untraced = [b for b in batches if not b["traced"]]
        deciles = statistics.quantiles(self.latencies_ms, n=10)
        named = {
            "fleet_batch_phase_s": (statistics.median([b["phase1_s"] for b in untraced]), "s"),
            "fleet_one_at_a_time_s": (statistics.median([b["phase2_s"] for b in untraced]), "s"),
            "configure_pipelines_per_s": (
                self.count / statistics.median([b["phase1_s"] for b in untraced]), "1/s"),
            "configure_one_p50_ms": (statistics.median(self.latencies_ms), "ms"),
            "configure_one_p90_ms": (deciles[8], "ms"),
            "configure_one_samples": (len(self.latencies_ms), "count"),
        }
        return named, {}
