"""Project configuration: one YAML file drives the whole loop."""

import dataclasses
import hashlib
import os

import yaml

from .etl import WorkloadSpec
from .kg import CloudAttributes
from .optimizer import SearchSpace
from .sim import CostModel, default_cluster


class ConfigError(Exception):
    pass


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
    def workload_spec(self, seed=None):
        fields = dict(self.workload)
        if seed is not None:
            fields["seed"] = seed
        return WorkloadSpec(**fields)

    def cluster_spec(self):
        fields = dict(self.cluster)
        queue_latency = fields.pop("queue_latency", None)
        try:
            cluster = default_cluster(
                node_count=int(fields.pop("nodes", 7)),
                node_memory=float(fields.pop("node_memory", 128.0)),
                node_storage=float(fields.pop("node_storage", 4096.0)),
            )
            if queue_latency is not None:
                cluster = dataclasses.replace(cluster, queue_latency=float(queue_latency))
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad cluster settings: %s" % exc)
        if fields:
            raise ConfigError("unknown cluster keys: %s" % sorted(fields))
        return cluster

    def cost_model(self, **overrides):
        fields = dict(self.cost)
        fields.update(overrides)
        try:
            return CostModel(**fields)
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad cost model settings: %s" % exc)

    def cloud_attributes(self):
        fields = dict(self.cloud)
        fields.setdefault("id", "c1")
        fields.setdefault("node_memory", float(self.cluster.get("node_memory", 128.0)))
        fields.setdefault("node_storage", float(self.cluster.get("node_storage", 4096.0)))
        return CloudAttributes(**fields)

    def search_space(self, n):
        return SearchSpace(n=n, **self.search)

    def pilot_plan(self):
        plan = {
            "durations": [21.6, 43.2, 64.8, 86.4],
            "record_bytes": [625, 1250, 2500],
            "estimation_seeds": 5,
            "configuration_seeds": 3,
            "noise_amplitude": 0.05,
        }
        plan.update(self.pilot)
        return plan

    def learn_plan(self):
        plan = {"methods": ["polyr", "knn"], "time_method": "knn", "target_nmae": 0.10}
        plan.update(self.learn)
        return plan

    def simulate_plan(self):
        plan = {"durations": [21.6, 43.2, 64.8, 86.4]}
        plan.update(self.simulate)
        return plan


_SECTION_KEYS = {f.name for f in dataclasses.fields(ProjectConfig)}


def load_config(path):
    try:
        with open(path) as fh:
            tree = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(tree) - _SECTION_KEYS
    if unknown:
        raise ConfigError("unknown config sections: %s" % sorted(unknown))
    return ProjectConfig(**tree)


def derive_seed(root_seed, stage):
    """Stable per-stage sub-seed from the single root seed."""
    digest = hashlib.sha256(("%d/%s" % (root_seed, stage)).encode()).digest()
    return int.from_bytes(digest[:4], "big")
