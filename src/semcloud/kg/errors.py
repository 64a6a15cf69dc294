from ..errors import DomainError


class PipelineGraphError(DomainError):
    """Base class for pipeline-graph errors."""


class SchemaError(PipelineGraphError):
    """Unknown class, property, or malformed document."""


class StructureError(PipelineGraphError):
    """A graph invariant is violated."""


class CycleError(StructureError):
    """The hasNextTask relation contains a cycle."""


class InvalidGraph(PipelineGraphError):
    """Operation applied to a graph that fails validation."""


class MissingTask(PipelineGraphError):
    """A configuration targets a task kind the pipeline does not have."""
