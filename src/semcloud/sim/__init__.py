from .engine import (
    ComparisonRow,
    ExecutionPlan,
    collect_pilot_stats,
    compare,
    deploy,
    run,
    run_legacy,
)
from .errors import InsufficientResources, SimError, SimulatedOutOfMemory
from .model import (
    ClusterSpec,
    NodeSpec,
    QueueChannel,
    RunTrace,
    SimWorkload,
    StepInstance,
    default_cluster,
    legacy_node,
    write_trace,
)
from ..specs import MAX_NOISE_AMPLITUDE, MB, CostModel

__all__ = [
    "MAX_NOISE_AMPLITUDE",
    "MB",
    "ClusterSpec",
    "ComparisonRow",
    "CostModel",
    "ExecutionPlan",
    "InsufficientResources",
    "NodeSpec",
    "QueueChannel",
    "RunTrace",
    "SimError",
    "SimWorkload",
    "SimulatedOutOfMemory",
    "StepInstance",
    "collect_pilot_stats",
    "compare",
    "default_cluster",
    "deploy",
    "legacy_node",
    "run",
    "run_legacy",
    "write_trace",
]
