"""Typed graph model of an ETL pipeline.

The model keeps the ontology's vocabulary (ETLPipeline, hasNextTask, ...) in
the serialized form but exposes plain Python names here.  Graph values are
immutable after construction; every mutation produces a new graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..datalog.corpus import DEFAULT_C1, DEFAULT_C2, DEFAULT_C3

TASK_KINDS = ("Retrieve", "Slice", "Prepare", "Store")
FREQUENCY_CLASSES = ("frequent", "infrequent")

# the relations a document's edges may carry; a node's own fields are PROPERTIES
EDGE_RELATIONS = (
    "hasStartTask",
    "hasNextTask",
    "hasLayer",
    "hasTask",
)


@dataclass(frozen=True)
class Layer:
    id: str
    kind: str  # e.g. RetrieveLayer, SliceLayer


@dataclass(frozen=True)
class IOHandler:
    id: str
    inputs: tuple = ()
    outputs: tuple = ()


@dataclass(frozen=True)
class DataEntity:
    id: str
    volume: float = 0.0  # MB
    no_records: float = 0.0
    location: Optional[str] = None


@dataclass(frozen=True)
class TaskNode:
    id: str
    kind: str
    io: Optional[str] = None  # IOHandler id
    chunk_size: Optional[float] = None  # Slice only
    slice_size: Optional[float] = None  # Slice only
    memory_reservation: Optional[float] = None  # Slice / Prepare
    storage_mode: Optional[str] = None  # Store only
    required_time: Optional[float] = None  # measured seconds


# The ontology property of each node field, in the order a document item
# lists it, with the type of its value (float, str or tuple).  ``parse_pipeline``,
# ``serialize_pipeline`` and ``to_facts`` all spell a field by this table.
PROPERTIES = {
    TaskNode: (
        ("chunk_size", "hasChunkSize", float),
        ("slice_size", "hasSliceSize", float),
        ("memory_reservation", "hasMemoryReservation", float),
        ("storage_mode", "hasStorageMode", str),
        ("required_time", "hasRequiredTime", float),
        ("io", "hasIO", str),
    ),
    DataEntity: (
        ("volume", "hasVolume", float),
        ("no_records", "hasNoRecords", float),
        ("location", "storedAt", str),
    ),
    IOHandler: (
        ("inputs", "hasInput", tuple),
        ("outputs", "hasOutput", tuple),
    ),
}


@dataclass(frozen=True)
class CloudAttributes:
    id: str = "c1"
    memory_buffer_coefficient: float = DEFAULT_C1
    storage_buffer_coefficient: float = DEFAULT_C2
    max_memory_coefficient: float = DEFAULT_C3
    node_memory: float = 0.0  # MB
    node_storage: float = 0.0  # MB (the ontology's second "ns", renamed nst)
    fast_storage: str = "fast_storage"
    cloud_storage: str = "cloud_storage"


@dataclass(frozen=True)
class ResourceConfiguration:
    pipeline: str
    chunk_size: float
    slice_size: float
    storage: str  # storage id, matched against CloudAttributes fast/cloud ids
    slice_memory_reservation: float
    prepare_memory_reservation: float


@dataclass(frozen=True)
class PipelineGraph:
    id: str
    frequency_class: str = "frequent"
    layers: tuple = ()
    tasks: tuple = ()
    data_entities: tuple = ()
    io_handlers: tuple = ()
    edges: tuple = ()  # (relation, subject, object) triples

    def tasks_of_kind(self, kind: str) -> list:
        return [t for t in self.tasks if t.kind == kind]
