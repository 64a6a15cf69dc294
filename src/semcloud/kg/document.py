"""Pipeline document parsing and serialization.

The primary format is a key-value tree (YAML) using the ontology vocabulary
verbatim, versioned as ``format: semcloud-pipeline/1``.  A flat triple list
(``triples: [[subject, property, object], ...]``) is accepted as an
alternative spelling of the same graph; ``a`` triples assign classes.
"""

from __future__ import annotations

import math

import yaml

from .errors import CycleError, SchemaError, StructureError
from .model import (
    EDGE_RELATIONS,
    DataEntity,
    IOHandler,
    Layer,
    PipelineGraph,
    RequirementSet,
    TASK_KINDS,
    TaskNode,
)
from .validate import validate

FORMAT = "semcloud-pipeline/1"

# libyaml's C loader and dumper when PyYAML was built with them; they read
# and write the same documents as the pure-Python ones.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_TASK_PROPS = {
    "hasChunkSize": "chunk_size",
    "hasSliceSize": "slice_size",
    "hasMemoryReservation": "memory_reservation",
    "hasStorageMode": "storage_mode",
    "hasRequiredTime": "required_time",
    "hasIO": "io",
}

_REQ_PROPS = {
    "computing": "computing",
    "memory": "memory",
    "storage": "storage",
    "network": "network",
}

_ENTITY_PROPS = {
    "hasVolume": "volume",
    "hasNoRecords": "no_records",
    "storedAt": "location",
}

_LAYER_KINDS = ("RetrieveLayer", "SliceLayer", "PrepareLayer", "StoreLayer", "Layer")


def parse_pipeline(document: str) -> PipelineGraph:
    """Parse a pipeline document, validate it, and return the graph.

    Raises SchemaError on unknown classes/properties, CycleError when
    hasNextTask is cyclic, StructureError on any other invariant violation.
    """
    try:
        data = yaml.load(document, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise SchemaError(f"unreadable document: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("document root must be a mapping")
    if data.get("format") != FORMAT:
        raise SchemaError(f"unsupported format {data.get('format')!r}, expected {FORMAT}")

    if "triples" in data:
        graph = _from_triples(data["triples"])
    else:
        graph = _from_tree(data)

    report = validate(graph)
    if not report.ok:
        if any("cyclic" in v.message for v in report.violations):
            raise CycleError(str(report))
        raise StructureError(str(report))
    return graph


def _num(value, context):
    number = None
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (OverflowError, TypeError, ValueError):
            pass
    if number is None or not math.isfinite(number):
        raise SchemaError(f"{context}: expected a finite number, got {value!r}")
    return number


def _list(value, context):
    if value is None:
        return []
    if not isinstance(value, list):
        raise SchemaError(f"{context}: expected a list, got {value!r}")
    return value


def _items(data, key):
    """The entries of a section, each a mapping with an id."""
    items = _list(data.get(key), key)
    for item in items:
        if not isinstance(item, dict) or "id" not in item:
            raise SchemaError(f"{key}: expected a mapping with an id, got {item!r}")
    return items


def _from_tree(data: dict) -> PipelineGraph:
    head = data.get("ETLPipeline")
    if not isinstance(head, dict) or "id" not in head:
        raise SchemaError("missing ETLPipeline section with an id")
    pid = str(head["id"])

    tasks = []
    for item in _items(data, "tasks"):
        kind = item.get("type")
        if kind not in TASK_KINDS:
            raise SchemaError(f"task {item.get('id')}: unknown task class {kind!r}")
        fields = {"id": str(item["id"]), "kind": kind}
        for key, value in item.items():
            if key in ("id", "type"):
                continue
            if key == "hasRequirementSet":
                if not isinstance(value, dict):
                    raise SchemaError(f"task {item['id']}: hasRequirementSet must be a mapping")
                unknown = set(value) - set(_REQ_PROPS)
                if unknown:
                    raise SchemaError(f"task {item['id']}: unknown requirement fields {sorted(unknown)}")
                fields["requirement"] = RequirementSet(
                    **{_REQ_PROPS[k]: _num(v, f"requirement {k}") for k, v in value.items()}
                )
            elif key in _TASK_PROPS:
                attr = _TASK_PROPS[key]
                if attr in ("io", "storage_mode"):
                    fields[attr] = str(value)
                else:
                    fields[attr] = _num(value, f"task {item['id']} {key}")
            else:
                raise SchemaError(f"task {item['id']}: unknown property {key!r}")
        tasks.append(TaskNode(**fields))

    entities = []
    for item in _items(data, "data_entities"):
        fields = {"id": str(item["id"])}
        for key, value in item.items():
            if key == "id":
                continue
            if key not in _ENTITY_PROPS:
                raise SchemaError(f"data entity {item['id']}: unknown property {key!r}")
            attr = _ENTITY_PROPS[key]
            fields[attr] = str(value) if attr == "location" else _num(value, key)
        entities.append(DataEntity(**fields))

    layers = []
    for item in _items(data, "layers"):
        kind = item.get("type", "Layer")
        if kind not in _LAYER_KINDS:
            raise SchemaError(f"layer {item.get('id')}: unknown layer class {kind!r}")
        layers.append(Layer(id=str(item["id"]), kind=kind))

    handlers = []
    for item in _items(data, "io_handlers"):
        handlers.append(
            IOHandler(
                id=str(item["id"]),
                inputs=tuple(str(x) for x in _list(item.get("hasInput"), "hasInput")),
                outputs=tuple(str(x) for x in _list(item.get("hasOutput"), "hasOutput")),
            )
        )

    edges = []
    for triple in _list(data.get("edges"), "edges"):
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise SchemaError(f"edge {triple!r} is not a [subject, property, object] triple")
        s, rel, o = (str(x) for x in triple)
        if rel not in EDGE_RELATIONS:
            raise SchemaError(f"unknown relation {rel!r}")
        edges.append((rel, s, o))

    return PipelineGraph(
        id=pid,
        frequency_class=str(head.get("frequency", "frequent")),
        depends_on=str(head["dependsOn"]) if head.get("dependsOn") else None,
        layers=tuple(layers),
        tasks=tuple(tasks),
        data_entities=tuple(entities),
        io_handlers=tuple(handlers),
        edges=tuple(edges),
    )


def _from_triples(triples) -> PipelineGraph:
    classes: dict = {}
    props: dict = {}
    edges = []
    for triple in _list(triples, "triples"):
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise SchemaError(f"triple {triple!r} must have three components")
        s, p, o = triple
        s, p = str(s), str(p)
        if p == "a":
            classes.setdefault(str(o), []).append(s)
        elif p in EDGE_RELATIONS and p != "hasIO":  # hasIO is a task property
            edges.append((p, s, str(o)))
        else:
            props.setdefault(s, {})[p] = o

    pipelines = classes.get("ETLPipeline", [])
    if len(pipelines) != 1:
        raise SchemaError(f"expected exactly one ETLPipeline individual, got {pipelines}")
    pid = pipelines[0]
    ppr = props.get(pid, {})

    tree = {
        "format": FORMAT,
        "ETLPipeline": {
            "id": pid,
            "frequency": ppr.get("frequency", "frequent"),
            **({"dependsOn": ppr["dependsOn"]} if "dependsOn" in ppr else {}),
        },
        "tasks": [
            {"id": tid, "type": kind, **props.get(tid, {})}
            for kind in TASK_KINDS
            for tid in classes.get(kind, [])
        ],
        "data_entities": [
            {"id": did, **props.get(did, {})} for did in classes.get("DataEntity", [])
        ],
        "layers": [
            {"id": lid, "type": kind}
            for kind in _LAYER_KINDS
            for lid in classes.get(kind, [])
        ],
        "io_handlers": [
            {"id": ioid, **props.get(ioid, {})} for ioid in classes.get("IOHandler", [])
        ],
        "edges": [[s, rel, o] for rel, s, o in edges],
    }
    # hasInput / hasOutput may come as triples; fold them into the handlers
    for item in tree["io_handlers"]:
        for k in ("hasInput", "hasOutput"):
            if k in item and not isinstance(item[k], list):
                item[k] = [item[k]]
    for rel, s, o in list(edges):
        if rel in ("hasInput", "hasOutput"):
            for item in tree["io_handlers"]:
                if item["id"] == s:
                    item.setdefault(rel, []).append(o)
            tree["edges"].remove([s, rel, o])
    return _from_tree(tree)


def serialize_pipeline(graph: PipelineGraph) -> str:
    """Canonical document text; ``parse_pipeline`` inverts it exactly."""
    head = {"id": graph.id, "frequency": graph.frequency_class}
    if graph.depends_on:
        head["dependsOn"] = graph.depends_on

    def task_item(t: TaskNode):
        item = {"id": t.id, "type": t.kind}
        for prop, attr in _TASK_PROPS.items():
            value = getattr(t, attr)
            if value is not None:
                item[prop] = value
        if t.requirement is not None:
            item["hasRequirementSet"] = {
                k: getattr(t.requirement, attr) for k, attr in _REQ_PROPS.items()
            }
        return item

    def entity_item(d: DataEntity):
        item = {"id": d.id, "hasVolume": d.volume, "hasNoRecords": d.no_records}
        if d.location is not None:
            item["storedAt"] = d.location
        return item

    doc = {
        "format": FORMAT,
        "ETLPipeline": head,
        "layers": [{"id": l.id, "type": l.kind} for l in graph.layers],
        "tasks": [task_item(t) for t in graph.tasks],
        "data_entities": [entity_item(d) for d in graph.data_entities],
        "io_handlers": [
            {"id": io.id, "hasInput": list(io.inputs), "hasOutput": list(io.outputs)}
            for io in graph.io_handlers
        ],
        "edges": [[s, rel, o] for rel, s, o in graph.edges],
    }
    return yaml.dump(doc, Dumper=_Dumper, sort_keys=False)
