"""The values the project file builds and more than one layer reads.

``config`` builds a ``WorkloadSpec`` and a ``CostModel`` from the project
file and checks its settings against their fields, and several layers read
the constants below.  They live in this leaf, which imports no layer and no
numpy, so a stage that builds a workload or a cost model loads only the
layers it runs: ``semcloud.etl`` and ``semcloud.sim`` re-export them.
"""

import dataclasses
import math

from .rng import check_seed

MB = 2**20
MAX_NOISE_AMPLITUDE = 0.5

# Averaging granularity of the per-slice-index estimates: range(1..RANGE_SIZE)
# is emitted into every EDB, and each per-index external trains on it.
RANGE_SIZE = 10

# The storage modes a pipeline's Store task can write to: the graph check
# (kg.validate) and the pilot records (pilots) both check a mode against it.
STORAGE_MODES = ("fast", "cloud")


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    production_lines: int = 3
    machines: int = 45
    duration: float = 86.4  # s, 1/1000 of one day
    rate: float = 1.0  # records per second per machine
    record_bytes: int = 1250  # 1/100 of the measured 125 KB per operation
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.production_lines <= self.machines:
            raise ValueError("need machines >= production_lines >= 1")
        for name in ("duration", "rate", "record_bytes"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be positive and finite, got %r"
                                 % (name, getattr(self, name)))
        if self.records_per_machine() < 1:
            raise ValueError("rate * duration must give each machine a record")
        check_seed(self.seed)

    def records_per_machine(self):
        return int(self.rate * self.duration)

    def total_records(self):
        return self.machines * self.records_per_machine()


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
