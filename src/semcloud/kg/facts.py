"""Conversion of pipeline graphs to ground Datalog facts.

``to_facts`` emits the EDB the extraction rules match on: one atom per field
with a value, task-chain atoms, cloud attributes, and -- when a pilot record
is supplied -- the hasEst* pre-estimate atoms plus the range(i) enumeration
used by the per-slice-index averaging.
"""

from __future__ import annotations

from dataclasses import replace

from ..datalog.corpus import RANGE_SIZE
from ..datalog.factset import FactSet
from .errors import InvalidGraph, MissingTask
from .model import (
    PROPERTIES,
    CloudAttributes,
    PipelineGraph,
    ResourceConfiguration,
)
from .validate import validate

_EST_ATOMS = (
    ("slice_memory", "hasEstSliceMemory"),
    ("prepare_memory", "hasEstPrepareMemory"),
    ("slice_storage", "hasEstSliceStorage"),
    ("prepare_storage", "hasEstPrepareStorage"),
    ("store_storage", "hasEstStoreStorage"),
)


def to_facts(graph: PipelineGraph, cloud: CloudAttributes | None = None,
             pilot=None) -> FactSet:
    """Ground the graph into an EDB.  Raises what ``validate`` raises on a
    bad graph: CycleError or StructureError.

    ``pilot`` is any object with slice_memory / prepare_memory /
    slice_storage / prepare_storage / store_storage attributes (MB); it
    supplies the hasEst* atoms the estimation rule starts from.
    """
    validate(graph)

    facts = FactSet()
    pid = graph.id
    facts.add("ETLPipeline", (pid,))
    facts.add("frequencyClass", (pid, graph.frequency_class))

    for layer in graph.layers:
        facts.add(layer.kind, (layer.id,))
    for rel, s, o in graph.edges:
        facts.add(rel, (s, o))
    # the entities fed into the pipeline: the Retrieve tasks' IO outputs
    retrieve_ios = {t.io for t in graph.tasks_of_kind("Retrieve")}
    for d in sorted({d for io in graph.io_handlers if io.id in retrieve_ios
                     for d in io.outputs}):
        facts.add("hasInputData", (pid, d))

    for t in graph.tasks:
        _add_node(facts, t.kind, t)
    for io in graph.io_handlers:
        _add_node(facts, "IOHandler", io)
    for d in graph.data_entities:
        _add_node(facts, "DataEntity", d)

    if cloud is not None:
        facts.add("Cloud", (cloud.id,))
        facts.add("hasMemoryBufferCoefficient", (cloud.id, cloud.memory_buffer_coefficient))
        facts.add("hasStorageBufferCoefficient", (cloud.id, cloud.storage_buffer_coefficient))
        facts.add("hasMaxMemoryCoefficient", (cloud.id, cloud.max_memory_coefficient))
        facts.add("hasNodeMemory", (cloud.id, cloud.node_memory))
        facts.add("hasNodeStorage", (cloud.id, cloud.node_storage))
        facts.add("hasFastStorage", (cloud.id, cloud.fast_storage))
        facts.add("hasCloudStorage", (cloud.id, cloud.cloud_storage))

    if pilot is not None:
        for attr, pred in _EST_ATOMS:
            facts.add(pred, (pid, float(getattr(pilot, attr))))
        for i in range(1, RANGE_SIZE + 1):
            facts.add("range", (float(i),))

    return facts


def _add_node(facts: FactSet, cls: str, node) -> None:
    """The node's class atom, then an atom for each value of each property set."""
    facts.add(cls, (node.id,))
    for attr, prop, kind in PROPERTIES[type(node)]:
        value = getattr(node, attr)
        if value is None:
            continue
        if kind is tuple:
            for item in value:
                facts.add(prop, (node.id, item))
        else:
            facts.add(prop, (node.id, value))


def apply_configuration(graph: PipelineGraph, config: ResourceConfiguration,
                        cloud: CloudAttributes) -> PipelineGraph:
    """Write a configuration onto the task nodes; returns a new graph.

    The config's storage id is the cloud's fast or cloud storage id, and
    becomes the Store task's "fast" or "cloud" mode; any other id is
    InvalidGraph.
    """
    if config.pipeline != graph.id:
        raise InvalidGraph(
            f"configuration targets {config.pipeline!r}, graph is {graph.id!r}"
        )
    # listed fast last, so it wins when the two ids are the same
    mode = {cloud.cloud_storage: "cloud", cloud.fast_storage: "fast"}.get(config.storage)
    if mode is None:
        raise InvalidGraph(f"unknown storage id {config.storage!r}")

    if not graph.tasks_of_kind("Slice") and graph.frequency_class == "frequent":
        raise MissingTask(f"pipeline {graph.id} has no Slice task")
    if not graph.tasks_of_kind("Store"):
        raise MissingTask(f"pipeline {graph.id} has no Store task")

    new_tasks = []
    for t in graph.tasks:
        if t.kind == "Slice":
            t = replace(
                t,
                chunk_size=config.chunk_size,
                slice_size=config.slice_size,
                memory_reservation=config.slice_memory_reservation,
            )
        elif t.kind == "Prepare":
            t = replace(t, memory_reservation=config.prepare_memory_reservation)
        elif t.kind == "Store":
            t = replace(t, storage_mode=mode)
        new_tasks.append(t)
    return replace(graph, tasks=tuple(new_tasks))
