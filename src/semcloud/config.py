"""Project configuration: one YAML file drives the whole loop.

Each layer is imported by the accessor that builds its objects, so a stage
loads only the layers it asks the config for.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import os


class ConfigError(Exception):
    pass


def _number(integer=False, allow_zero=False, at_most=math.inf):
    """The rule for a finite number: positive, or non-negative with ``allow_zero``,
    and at most ``at_most``.

    Takes an int or float (not a bool) or a string that ``float()`` parses,
    since YAML 1.1 reads ``1e3`` as a string, and gives a float, or an int
    when ``integer`` (then the value must be whole).
    """
    def check(value):
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            return None
        try:
            number = float(value)
        except (OverflowError, ValueError):
            return None
        if (not math.isfinite(number) or not (number >= 0.0 if allow_zero else number > 0.0)
                or number > at_most or (integer and not number.is_integer())):
            return None
        return int(number) if integer else number

    return "a %s %s%s" % ("non-negative" if allow_zero else "positive",
                          "integer" if integer else "finite number",
                          " at most %r" % at_most if at_most < math.inf else ""), check


def _list(rule):
    """The rule for a non-empty list whose every item passes ``rule``."""
    what, check = rule

    def check_all(value):
        items = [check(item) for item in value] if isinstance(value, list) else []
        return tuple(items) if items and None not in items else None

    return "a non-empty list, each %s" % what, check_all


_POSITIVE = _number()
_NON_NEGATIVE = _number(allow_zero=True)
_COUNT = _number(integer=True)
_SYMBOL = ("a non-empty string", lambda value: value if isinstance(value, str) and value else None)


@functools.cache
def _rules():
    """Every key each section may set, and the rule its value must pass.

    The defaults live in the type each section builds (WorkloadSpec,
    default_cluster, CostModel, CloudAttributes, SearchSpace), or in
    _DEFAULTS for the plans no type owns.  Built on the first check, since
    it reads CostModel's fields, the noise bound and the learning methods.
    """
    from .learning import DEFAULT_GRIDS
    from .sim import MAX_NOISE_AMPLITUDE, CostModel

    method = ("one of %s" % sorted(DEFAULT_GRIDS),
              lambda value: value if isinstance(value, str) and value in DEFAULT_GRIDS else None)
    return {
        "workload": {"production_lines": _COUNT, "machines": _COUNT, "duration": _POSITIVE,
                     "rate": _POSITIVE, "record_bytes": _COUNT},
        "cluster": {"nodes": _COUNT, "node_memory": _POSITIVE, "node_storage": _POSITIVE,
                    "queue_latency": _NON_NEGATIVE},
        # The noise is not a project setting: each caller passes its amplitude,
        # and each noisy run gets its own seed.
        "cost": {f.name: (_COUNT if f.type is int
                          else _POSITIVE if f.name.startswith("thr_") else _NON_NEGATIVE)
                 for f in dataclasses.fields(CostModel)
                 if f.name not in ("noise_amplitude", "noise_seed")},
        "cloud": {"id": _SYMBOL, "memory_buffer_coefficient": _POSITIVE,
                  "storage_buffer_coefficient": _POSITIVE, "max_memory_coefficient": _POSITIVE,
                  "node_memory": _POSITIVE, "node_storage": _POSITIVE,
                  "fast_storage": _SYMBOL, "cloud_storage": _SYMBOL},
        "search": {"nc_steps": _COUNT, "ns_steps": _COUNT, "span": _COUNT},
        "pilot": {"durations": _list(_POSITIVE), "record_bytes": _list(_COUNT),
                  "estimation_seeds": _COUNT, "configuration_seeds": _COUNT,
                  "noise_amplitude": _number(allow_zero=True, at_most=MAX_NOISE_AMPLITUDE)},
        "learn": {"methods": _list(method), "time_method": method, "target_nmae": _POSITIVE},
        "simulate": {"durations": _list(_POSITIVE)},
    }


def checked_setting(section, key, value, name=None):
    """``value`` parsed by the rule of ``<section>.<key>``; a ConfigError
    naming ``name`` (the setting by default) if it fails the rule."""
    what, check = _rules()[section][key]
    checked = check(value)
    if checked is None:
        raise ConfigError("%s must be %s, got %r" % (name or "%s.%s" % (section, key), what, value))
    return checked


_DEFAULTS = {
    "pilot": {"durations": (21.6, 43.2, 64.8, 86.4), "record_bytes": (625, 1250, 2500),
              "estimation_seeds": 5, "configuration_seeds": 3, "noise_amplitude": 0.05},
    "learn": {"methods": ("polyr", "knn"), "time_method": "knn", "target_nmae": 0.10},
    "simulate": {"durations": (21.6, 43.2, 64.8, 86.4)},
}


def _checked(config):
    """Check every setting of ``config`` against _rules(); the sections with parsed values."""
    if (isinstance(config.seed, bool) or not isinstance(config.seed, int)
            or not isinstance(config.workdir, str)):
        raise ConfigError("seed must be an integer and workdir a path, got %r and %r"
                          % (config.seed, config.workdir))
    sections = {}
    for section, rules in _rules().items():
        values = getattr(config, section)
        if not isinstance(values, dict):
            raise ConfigError("config section %s must be a mapping, got %r" % (section, values))
        unknown = sorted("%s.%s" % (section, key) for key in set(values) - set(rules))
        if unknown:
            raise ConfigError("unknown settings: %s" % ", ".join(unknown))
        sections[section] = {key: checked_setting(section, key, value)
                             for key, value in values.items()}
    return sections


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
    """The project file's settings, each checked against _rules() when it is built."""

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

    def __post_init__(self):
        for section, values in _checked(self).items():
            object.__setattr__(self, section, values)

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
        from .etl import WorkloadSpec

        try:
            return WorkloadSpec(**dict(self.workload, **overrides))
        except ValueError as exc:
            raise ConfigError("bad workload settings: %s" % exc)

    def cluster_spec(self):
        from .sim import default_cluster

        # default_cluster sizes the nodes; ClusterSpec holds the queue latency.
        nodes = {"node_count" if key == "nodes" else key: value
                 for key, value in self.cluster.items() if key != "queue_latency"}
        latency = {key: value for key, value in self.cluster.items() if key == "queue_latency"}
        return dataclasses.replace(default_cluster(**nodes), **latency)

    def cost_model(self, **overrides):
        from .sim import CostModel

        return CostModel(**dict(self.cost, **overrides))

    def cloud_attributes(self):
        from .kg import CloudAttributes

        # The cloud's nodes are the cluster's unless the section says otherwise.
        node = self.cluster_spec().nodes[0]
        return CloudAttributes(**dict(
            {"node_memory": node.node_memory, "node_storage": node.node_storage}, **self.cloud))

    def search_space(self, n):
        from .optimizer import SearchSpace

        return SearchSpace(n=n, **self.search)

    def pilot_plan(self):
        return dict(_DEFAULTS["pilot"], **self.pilot)

    def timed_workloads(self, section, record_sizes=None):
        """One SimWorkload per ``<section>.durations`` entry and record size.

        Each machine emits ``int(rate * duration)`` records; the record
        sizes default to the workload's.  A duration that gives a machine
        no record is a ConfigError naming ``<section>.durations``.
        """
        from .sim import SimWorkload

        spec = self.workload_spec()
        durations = dict(_DEFAULTS[section], **getattr(self, section))["durations"]
        workloads = tuple(
            SimWorkload(n_records=spec.machines * int(spec.rate * d),
                        record_bytes=rb, machines=spec.machines)
            for d in durations
            for rb in record_sizes or (spec.record_bytes,)
        )
        if any(w.n_records < 1 for w in workloads):
            raise ConfigError("%s.durations must each give at least one record per "
                              "machine at rate %r, got %r" % (section, spec.rate, durations))
        return workloads

    def pilot_runs(self):
        from .sim import SimWorkload

        plan = self.pilot_plan()
        base = derive_seed(self.seed, "pilot")
        target = SimWorkload.from_spec(self.workload_spec())
        return PilotRuns(
            cluster=self.cluster_spec(),
            cost=self.cost_model(noise_amplitude=plan["noise_amplitude"]),
            estimation_workloads=self.timed_workloads("pilot", plan["record_bytes"]),
            estimation_seeds=tuple(
                (base + i) % 2**31 for i in range(plan["estimation_seeds"])),
            target=target,
            grid=tuple(self.search_space(target.n_records).candidates()),
            configuration_seeds=tuple(
                (base + 101 + i) % 2**31 for i in range(plan["configuration_seeds"])),
        )

    def learn_plan(self):
        return dict(_DEFAULTS["learn"], **self.learn)

    def simulate_plan(self):
        return dict(_DEFAULTS["simulate"], **self.simulate)


def load_config(path):
    import yaml

    try:
        with open(path) as fh:
            tree = yaml.safe_load(fh) or {}
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError("cannot read config: %s" % exc)
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(tree) - {f.name for f in dataclasses.fields(ProjectConfig)}
    if unknown:
        raise ConfigError("unknown config sections: %s" % sorted(unknown, key=str))
    return ProjectConfig(**tree)


def derive_seed(root_seed, stage):
    """Stable per-stage sub-seed from the single root seed."""
    digest = hashlib.sha256(("%d/%s" % (root_seed, stage)).encode()).digest()
    return int.from_bytes(digest[:4], "big")
