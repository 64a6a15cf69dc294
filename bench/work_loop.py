"""``loop``: the six CLI stages, each cold in its own process, on a fresh workdir.

The project is the README quick-start (12 machines x 86.4 s = 1032
records, 9 nodes, 722 pilot runs) with ``simulate.durations`` stretched
to a full day, so ``sim`` does most of the work: ``pilot`` makes many
short runs and keeps totals, ``simulate`` makes few long runs and writes
their full series.
"""

import hashlib
import json
import math
import os
import resource
import shutil
import statistics

import yaml

from common import Workload, check, cold_import, launch

STAGES = ("gen", "pilot", "learn", "configure", "simulate", "report")
TO_CONFIG = ("pilot", "learn", "configure")
TO_REPORT = ("simulate", "report")

PROJECT = {
    "workload": {"machines": 12, "duration": 86.4, "production_lines": 2},
    "pilot": {"durations": [43.2, 86.4], "record_bytes": [625, 1250]},
    "cluster": {"nodes": 9},
    "simulate": {"durations": [86.4, 864, 8640, 86400]},
}

SMOKE_PROJECT = {
    "workload": {"machines": 6, "duration": 86.4, "production_lines": 2},
    "pilot": {"durations": [43.2, 86.4], "record_bytes": [625, 1250],
              "estimation_seeds": 2, "configuration_seeds": 1},
    "cluster": {"nodes": 9},
    "search": {"nc_steps": 5, "ns_steps": 5, "span": 16},
    "simulate": {"durations": [43.2, 86.4]},
}

# Wall-clock timings are segregated in this file; every other artifact
# must be byte-identical between two runs with one seed.
NONDETERMINISTIC = ("fit_timings.tsv",)


def _tree_digest(directory):
    digests = {}
    for dirpath, _, filenames in os.walk(directory):
        for name in filenames:
            if name in NONDETERMINISTIC:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _status_fields(stderr):
    lines = [line for line in stderr.splitlines() if line.startswith("semcloud-status ")]
    if len(lines) != 1:
        return None, len(lines)
    fields = dict(part.split("=", 1) for part in lines[0].split()[1:])
    return fields, 1


class Loop(Workload):
    attempted_base = "stage invocations plus planned pilot runs"
    in_process = False

    def __init__(self, ctx):
        super().__init__(ctx)
        self.project = dict(SMOKE_PROJECT if ctx.smoke else PROJECT, seed=ctx.seed, workdir="out")
        self.digests = {}
        self.stage_times = {stage: [] for stage in STAGES}
        self.import_times = []

    def setup(self):
        # What every stage pays before it runs: interpreter start and the
        # cold package import (which also compiles the bytecode once in a
        # fresh checkout).
        return cold_import(self.ctx)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def _stage(self, directory, stage, traced):
        spans_path = os.path.join(directory, "%s.spans.json" % stage) if traced else "-"
        proc, wall, stats = launch(self.ctx, ["-c", "project.yaml", stage], directory, spans_path)
        fields, count = _status_fields(proc.stderr)
        ok = (proc.returncode == 0 and fields is not None and fields.get("ok") == "1"
              and "Traceback" not in proc.stdout + proc.stderr)
        check(ok, "loop: stage %s exit=%d status_lines=%d traceback=%s\n%s"
              % (stage, proc.returncode, count, "Traceback" in proc.stderr, proc.stderr[-2000:]))
        spans = []
        if traced:
            with open(spans_path) as fh:
                spans = json.load(fh)
            for span in spans:
                span["process"] = stage
        return wall, wall / stats["slowdown"], fields, stats["import_s"], spans

    def batch(self, index, traced):
        directory = os.path.join(self.ctx.workdir, "b%d" % index)
        os.makedirs(directory)
        with open(os.path.join(directory, "project.yaml"), "w") as fh:
            yaml.safe_dump(self.project, fh)
        times, walls, spans = {}, {}, []
        attempted = failed = 0
        for stage in STAGES:
            wall, ref, fields, import_s, stage_spans = self._stage(directory, stage, traced)
            times[stage], walls[stage] = ref, wall
            attempted += 1
            if stage == "pilot":
                skipped = int(fields["skipped"])
                attempted += int(fields["rows"]) + skipped
                failed += skipped
            for span in stage_spans:
                span["run"] = index
            spans += stage_spans
            if not traced:
                self.stage_times[stage].append(wall)
                self.import_times.append(import_s)
        self.digests[index] = _tree_digest(os.path.join(directory, "out"))
        if index > 0:
            shutil.rmtree(directory)
        return {
            "batch_s": sum(times.values()),
            "batch_wall_s": sum(walls.values()),
            "phase1_s": sum(times[s] for s in TO_CONFIG),
            "phase2_s": sum(times[s] for s in TO_REPORT),
            "attempted": attempted,
            "failed": failed,
            "spans": spans,
        }

    def finish(self, batches):
        first = self.digests[0]
        check(bool(first), "loop: batch 0 wrote no artifacts")
        for index, digests in self.digests.items():
            changed = sorted(set(first) ^ set(digests)) + sorted(
                rel for rel in first if rel in digests and first[rel] != digests[rel])
            check(not changed, "loop: batch %d artifacts differ from batch 0: %s"
                  % (index, changed[:5]))
        directory = os.path.join(self.ctx.workdir, "b0")
        speedup, regret = _quality(directory)
        untraced = [b for b in batches if not b["traced"]]
        named = {
            "loop_s": (statistics.median([b["batch_s"] for b in untraced]), "s"),
            "time_to_config_s": (statistics.median([b["phase1_s"] for b in untraced]), "s"),
            "time_to_report_s": (statistics.median([b["phase2_s"] for b in untraced]), "s"),
            "sim_speedup": (speedup, "ratio"),
            "config_regret": (regret, "ratio"),
        }
        layers = {"cli.import_s": (statistics.median(self.import_times), "s")}
        for stage, values in self.stage_times.items():
            layers["cli.%s_s" % stage] = (statistics.median(values), "s")
        return named, layers


def _quality(directory):
    """(legacy / configured time at the largest volume, configured / best-grid time).

    Both are simulated, noise-free and deterministic for a seed; the
    regret repeats the end-to-end configuration check on the target
    workload against every candidate of the search grid.
    """
    from semcloud.config import load_config
    from semcloud.kg import parse_pipeline
    from semcloud.sim import SimWorkload, deploy, run

    with open(os.path.join(directory, "out", "reports", "comparison.tsv")) as fh:
        header, *rows = [line.split("\t") for line in fh.read().splitlines()]
    speedup = 1.0 / float(rows[-1][header.index("time_ratio")])

    cfg = load_config(os.path.join(directory, "project.yaml"))
    with open(os.path.join(directory, "out", "configured_pipeline.yaml")) as fh:
        graph = parse_pipeline(fh.read())
    cost = cfg.cost_model(noise_amplitude=0.0)
    cluster = cfg.cluster_spec()
    workload = SimWorkload.from_spec(cfg.workload_spec())
    configured = run(deploy(graph, cluster, cost, workload), workload, cost)[0].consumed_time
    best = math.inf
    for nc, ns in cfg.search_space(workload.n_records).candidates():
        plan = deploy(None, cluster, cost, workload, nc=nc, ns=ns)
        best = min(best, run(plan, workload, cost)[0].consumed_time)
    return speedup, configured / best
