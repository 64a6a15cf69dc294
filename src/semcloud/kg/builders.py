"""Programmatic construction of standard pipeline graphs."""

from __future__ import annotations

from .model import DataEntity, IOHandler, Layer, PipelineGraph, TaskNode


def frequent_pipeline(pipeline_id: str = "p1", *, no_records: float = 10000.0,
                      volume_mb: float = 100.0, prepare_tasks: int = 2,
                      chunk_size: float | None = None,
                      slice_size: float | None = None,
                      slice_time: float | None = None,
                      prepare_time: float | None = None,
                      memory_reservation: float | None = None,
                      storage_mode: str | None = None) -> PipelineGraph:
    """A four-layer frequent pipeline: Retrieve -> Slice -> Prepare* -> Store.

    With two prepare tasks and sliced entities this reproduces the canonical
    p1 example graph (t1..t5, d1..d3).  Optional keyword values pre-configure
    the slice/prepare/store tasks the way a pilot run would.
    """
    p = pipeline_id
    retrieve = TaskNode(id=f"{p}_t1", kind="Retrieve", io=f"{p}_io1")
    slice_task = TaskNode(
        id=f"{p}_t2", kind="Slice", io=f"{p}_io2",
        chunk_size=chunk_size, slice_size=slice_size,
        required_time=slice_time, memory_reservation=memory_reservation,
    )
    prepares = []
    prep_entities = []
    prep_ios = []
    for k in range(prepare_tasks):
        tid = f"{p}_t{3 + k}"
        did = f"{p}_d{2 + k}"
        prep_entities.append(DataEntity(id=did, volume=volume_mb / max(prepare_tasks, 1),
                                        no_records=no_records / max(prepare_tasks, 1)))
        prep_ios.append(IOHandler(id=f"{p}_io{3 + k}", inputs=(did,), outputs=(f"{did}_out",)))
        prepares.append(TaskNode(id=tid, kind="Prepare", io=f"{p}_io{3 + k}",
                                 required_time=prepare_time,
                                 memory_reservation=memory_reservation))
    store_id = f"{p}_t{3 + prepare_tasks}"
    store = TaskNode(id=store_id, kind="Store", io=f"{p}_io_store", storage_mode=storage_mode)

    d1 = DataEntity(id=f"{p}_d1", volume=volume_mb, no_records=no_records, location="source")
    prep_outs = [DataEntity(id=f"{d.id}_out", volume=d.volume, no_records=d.no_records)
                 for d in prep_entities]
    stored = DataEntity(id=f"{p}_d_stored", volume=volume_mb, no_records=no_records)

    io1 = IOHandler(id=f"{p}_io1", outputs=(d1.id,))
    io2 = IOHandler(id=f"{p}_io2", inputs=(d1.id,), outputs=tuple(d.id for d in prep_entities))
    io_store = IOHandler(id=f"{p}_io_store", inputs=tuple(d.id for d in prep_outs),
                         outputs=(stored.id,))

    layers = (
        Layer(id=f"{p}_l1", kind="RetrieveLayer"),
        Layer(id=f"{p}_l2", kind="SliceLayer"),
        Layer(id=f"{p}_l3", kind="PrepareLayer"),
        Layer(id=f"{p}_l4", kind="StoreLayer"),
    )
    tasks = (retrieve, slice_task, *prepares, store)
    edges = [
        ("hasStartTask", p, retrieve.id),
        ("hasNextTask", retrieve.id, slice_task.id),
    ]
    for t in prepares:
        edges.append(("hasNextTask", slice_task.id, t.id))
        edges.append(("hasNextTask", t.id, store.id))
    for layer, members in zip(layers, ([retrieve], [slice_task], prepares, [store])):
        edges.append(("hasLayer", p, layer.id))
        for t in members:
            edges.append(("hasTask", layer.id, t.id))

    return PipelineGraph(
        id=p,
        frequency_class="frequent",
        layers=layers,
        tasks=tasks,
        data_entities=(d1, *prep_entities, *prep_outs, stored),
        io_handlers=(io1, io2, *prep_ios, io_store),
        edges=tuple(edges),
    )

