from .builders import frequent_pipeline
from .document import FORMAT, parse_pipeline, serialize_pipeline
from .errors import (
    CycleError,
    InvalidGraph,
    MissingTask,
    PipelineGraphError,
    SchemaError,
    StructureError,
)
from .facts import apply_configuration, to_facts
from .model import (
    CloudAttributes,
    DataEntity,
    IOHandler,
    Layer,
    PipelineGraph,
    ResourceConfiguration,
    TaskNode,
)
from .validate import validate

__all__ = [
    "FORMAT",
    "CloudAttributes",
    "CycleError",
    "DataEntity",
    "IOHandler",
    "InvalidGraph",
    "Layer",
    "MissingTask",
    "PipelineGraph",
    "PipelineGraphError",
    "ResourceConfiguration",
    "SchemaError",
    "StructureError",
    "TaskNode",
    "apply_configuration",
    "frequent_pipeline",
    "parse_pipeline",
    "serialize_pipeline",
    "to_facts",
    "validate",
]
