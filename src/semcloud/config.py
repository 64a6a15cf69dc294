"""Project configuration: one YAML file drives the whole loop."""

import dataclasses
import hashlib
import math
import os

import yaml

from .etl import WorkloadSpec
from .kg import CloudAttributes
from .learning import DEFAULT_GRIDS
from .optimizer import SearchSpace
from .sim import ClusterSpec, CostModel, SimWorkload, default_cluster


class ConfigError(Exception):
    pass


# Cloud attributes the rules do arithmetic on.
_CLOUD_NUMBERS = ("memory_buffer_coefficient", "storage_buffer_coefficient",
                  "max_memory_coefficient", "node_memory", "node_storage")

# Every CostModel field, and whether it is an integer.
_COST_NUMBERS = {f.name: f.type is int for f in dataclasses.fields(CostModel)}


def _number(name, value, integer=False, allow_zero=False):
    """A numeric setting as a finite float, or an int when ``integer``.

    Takes an int or float (not a bool) or a string that ``float()`` parses,
    since YAML 1.1 reads ``1e3`` as a string.  The value must be positive,
    or non-negative with ``allow_zero``; anything else is a ConfigError.
    """
    number = None
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (OverflowError, ValueError):
            pass
    if (number is None or not math.isfinite(number)
            or not (number >= 0.0 if allow_zero else number > 0.0)
            or (integer and not number.is_integer())):
        raise ConfigError("%s must be a finite %s%s, got %r" % (
            name, "non-negative" if allow_zero else "positive",
            " integer" if integer else " number", value))
    return int(number) if integer else number


def _plan(name, defaults, section):
    """The defaults updated by a config section that may only set their keys."""
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError("unknown %s keys: %s" % (name, sorted(unknown)))
    return dict(defaults, **section)


@dataclasses.dataclass(frozen=True)
class PilotRuns:
    """The simulations ``semcloud pilot`` makes for one project.

    Estimation runs: each estimation workload, unsliced, once per
    estimation seed.  Configuration runs: the target workload at each
    (nc, ns) candidate of the search space, once per configuration seed.
    """

    cluster: ClusterSpec
    cost: CostModel
    estimation_workloads: tuple
    estimation_seeds: tuple
    target: SimWorkload
    grid: tuple
    configuration_seeds: tuple

    @property
    def estimation_count(self):
        return len(self.estimation_workloads) * len(self.estimation_seeds)

    @property
    def configuration_count(self):
        return len(self.grid) * len(self.configuration_seeds)


@dataclasses.dataclass(frozen=True)
class ProjectConfig:
    workdir: str = "out"
    seed: int = 0
    workload: dict = dataclasses.field(default_factory=dict)
    cluster: dict = dataclasses.field(default_factory=dict)
    cost: dict = dataclasses.field(default_factory=dict)
    cloud: dict = dataclasses.field(default_factory=dict)
    search: dict = dataclasses.field(default_factory=dict)
    pilot: dict = dataclasses.field(default_factory=dict)
    learn: dict = dataclasses.field(default_factory=dict)
    simulate: dict = dataclasses.field(default_factory=dict)

    # paths
    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    @property
    def workload_dir(self):
        return self.path("workload")

    @property
    def pilot_csv(self):
        return self.path("pilot.csv")

    @property
    def models_dir(self):
        return self.path("models")

    @property
    def reports_dir(self):
        return self.path("reports")

    @property
    def configured_pipeline_path(self):
        return self.path("configured_pipeline.yaml")

    @property
    def facts_path(self):
        return self.path("configured_facts.dl")

    # domain objects
    def workload_spec(self, **overrides):
        fields = dict(self.workload)
        fields.update(overrides)
        try:
            return WorkloadSpec(**fields)
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad workload settings: %s" % exc)

    def cluster_spec(self):
        fields = dict(self.cluster)
        cluster = default_cluster(
            node_count=_number("cluster.nodes", fields.pop("nodes", 7), integer=True),
            node_memory=_number("cluster.node_memory", fields.pop("node_memory", 128.0)),
            node_storage=_number("cluster.node_storage", fields.pop("node_storage", 4096.0)),
        )
        if "queue_latency" in fields:
            cluster = dataclasses.replace(cluster, queue_latency=_number(
                "cluster.queue_latency", fields.pop("queue_latency"), allow_zero=True))
        if fields:
            raise ConfigError("unknown cluster keys: %s" % sorted(fields))
        return cluster

    def cost_model(self, **overrides):
        fields = dict(self.cost)
        # CostModel checks the throughputs and the noise amplitude itself.
        for name, integer in _COST_NUMBERS.items():
            if name in fields:
                fields[name] = _number("cost." + name, fields[name], integer, allow_zero=True)
        fields.update(overrides)
        try:
            return CostModel(**fields)
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad cost model settings: %s" % exc)

    def cloud_attributes(self):
        # The cloud's nodes are the cluster's unless the section says otherwise.
        node = self.cluster_spec().nodes[0]
        fields = {"id": "c1", "node_memory": node.node_memory, "node_storage": node.node_storage}
        fields.update(self.cloud)
        for name in _CLOUD_NUMBERS:
            if name in fields:
                fields[name] = _number("cloud." + name, fields[name])
        try:
            return CloudAttributes(**fields)
        except TypeError as exc:
            raise ConfigError("bad cloud settings: %s" % exc)

    def search_space(self, n):
        try:
            return SearchSpace(n=n, **self.search)
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad search settings: %s" % exc)

    def pilot_plan(self):
        return _plan("pilot", {
            "durations": [21.6, 43.2, 64.8, 86.4],
            "record_bytes": [625, 1250, 2500],
            "estimation_seeds": 5,
            "configuration_seeds": 3,
            "noise_amplitude": 0.05,
        }, self.pilot)

    def pilot_runs(self):
        plan = self.pilot_plan()
        spec = self.workload_spec()
        base = derive_seed(self.seed, "pilot")
        target = SimWorkload.from_spec(spec)
        try:
            noise_amplitude = float(plan["noise_amplitude"])
            durations = [_number("pilot.durations", d) for d in plan["durations"]]
            record_bytes = [_number("pilot.record_bytes", rb, integer=True)
                            for rb in plan["record_bytes"]]
            estimation_workloads = tuple(
                SimWorkload(n_records=spec.machines * int(spec.rate * d),
                            record_bytes=rb, machines=spec.machines)
                for d in durations
                for rb in record_bytes
            )
            estimation_seeds = tuple(
                (base + i) % 2**31 for i in range(int(plan["estimation_seeds"])))
            configuration_seeds = tuple(
                (base + 101 + i) % 2**31 for i in range(int(plan["configuration_seeds"])))
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad pilot settings: %s" % exc)
        if any(w.n_records < 1 for w in estimation_workloads):
            raise ConfigError("pilot.durations must each give at least one record per "
                              "machine at rate %r, got %r" % (spec.rate, plan["durations"]))
        return PilotRuns(
            cluster=self.cluster_spec(),
            cost=self.cost_model(noise_amplitude=noise_amplitude),
            estimation_workloads=estimation_workloads,
            estimation_seeds=estimation_seeds,
            target=target,
            grid=tuple(self.search_space(target.n_records).candidates()),
            configuration_seeds=configuration_seeds,
        )

    def learn_plan(self):
        plan = _plan("learn", {"methods": ["polyr", "knn"], "time_method": "knn",
                               "target_nmae": 0.10}, self.learn)
        methods = plan["methods"]
        if (not isinstance(methods, list) or not methods
                or not all(isinstance(m, str) and m in DEFAULT_GRIDS for m in methods)):
            raise ConfigError("learn.methods must be a non-empty list of %s, got %r"
                              % (sorted(DEFAULT_GRIDS), methods))
        if not isinstance(plan["time_method"], str) or plan["time_method"] not in DEFAULT_GRIDS:
            raise ConfigError("learn.time_method must be one of %s, got %r"
                              % (sorted(DEFAULT_GRIDS), plan["time_method"]))
        try:
            plan["target_nmae"] = float(plan["target_nmae"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad learn settings: %s" % exc)
        return plan

    def simulate_plan(self):
        plan = _plan("simulate", {"durations": [21.6, 43.2, 64.8, 86.4]}, self.simulate)
        durations = plan["durations"]
        if (not isinstance(durations, list) or not durations
                or not all(isinstance(d, (int, float)) and 0 < d < math.inf for d in durations)):
            raise ConfigError("simulate.durations must be a non-empty list of positive "
                              "seconds, got %r" % (durations,))
        return plan


_SECTION_KEYS = {f.name for f in dataclasses.fields(ProjectConfig)}
_MAPPING_SECTIONS = {f.name for f in dataclasses.fields(ProjectConfig) if f.type is dict}


def load_config(path):
    try:
        with open(path) as fh:
            tree = yaml.safe_load(fh) or {}
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError("cannot read config: %s" % exc)
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(tree) - _SECTION_KEYS
    if unknown:
        raise ConfigError("unknown config sections: %s" % sorted(unknown))
    scalar = sorted(k for k in _MAPPING_SECTIONS & set(tree) if not isinstance(tree[k], dict))
    if scalar:
        raise ConfigError("config sections must be mappings: %s" % scalar)
    seed, workdir = tree.get("seed", 0), tree.get("workdir", "out")
    if isinstance(seed, bool) or not isinstance(seed, int) or not isinstance(workdir, str):
        raise ConfigError("seed must be an integer and workdir a path, got %r and %r"
                          % (seed, workdir))
    return ProjectConfig(**tree)


def derive_seed(root_seed, stage):
    """Stable per-stage sub-seed from the single root seed."""
    digest = hashlib.sha256(("%d/%s" % (root_seed, stage)).encode()).digest()
    return int.from_bytes(digest[:4], "big")
