"""Pipeline document parsing and serialization.

A document is a JSON object using the ontology vocabulary verbatim,
versioned as ``"format": "semcloud-pipeline/1"``.  Each fact of a graph has
one spelling: a node's fields are keys of its own entry, named by
``model.PROPERTIES``, and ``edges`` holds only ``model.EDGE_RELATIONS``.  A
key that its section does not define is a SchemaError.  JSON is read with one
loader and nothing else: a document in another syntax, such as the block YAML
that earlier releases wrote, is a SchemaError that says it is not JSON.
"""

from __future__ import annotations

import json
import math

from .errors import SchemaError
from .model import (
    EDGE_RELATIONS,
    PROPERTIES,
    DataEntity,
    IOHandler,
    Layer,
    PipelineGraph,
    TASK_KINDS,
    TaskNode,
)
from .validate import validate

FORMAT = "semcloud-pipeline/1"

_SECTIONS = ("format", "ETLPipeline", "layers", "tasks", "data_entities", "io_handlers", "edges")
_HEAD_KEYS = ("id", "frequency")
_LAYER_KINDS = ("RetrieveLayer", "SliceLayer", "PrepareLayer", "StoreLayer", "Layer")
_BY_PROPERTY = {
    cls: {prop: (attr, kind) for attr, prop, kind in table}
    for cls, table in PROPERTIES.items()
}


def parse_pipeline(document: str) -> PipelineGraph:
    """Parse a JSON pipeline document, validate it, and return the graph.

    Raises SchemaError on a malformed document or an unknown key, class or
    relation, CycleError when hasNextTask is cyclic, StructureError on any
    other invariant violation.
    """
    try:
        data = json.loads(document)
    except ValueError as exc:
        raise SchemaError(f"unreadable document: not JSON: {exc}") from exc
    except RecursionError:
        # the JSON scanner recurses once per nesting level
        raise SchemaError("unreadable document: nested too deeply") from None
    if not isinstance(data, dict):
        raise SchemaError("document root must be a mapping")
    if data.get("format") != FORMAT:
        raise SchemaError(f"unsupported format {data.get('format')!r}, expected {FORMAT}")
    graph = _from_tree(data)
    validate(graph)
    return graph


def _known(mapping, keys, context):
    for key in mapping:
        if key not in keys:
            raise SchemaError(f"{context}: unknown key {key!r}")


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


def _items(data, key, seen):
    """The entries of a section, each a mapping with an id.  ``seen`` holds
    the ids read so far, from this section and the ones before it; an id
    already in it is a SchemaError, since to_facts would merge the nodes."""
    items = _list(data.get(key), key)
    for item in items:
        if not isinstance(item, dict) or "id" not in item:
            raise SchemaError(f"{key}: expected a mapping with an id, got {item!r}")
        node_id = str(item["id"])
        if node_id in seen:
            raise SchemaError(f"{key}: id {node_id!r} is used twice")
        seen.add(node_id)
    return items


def _value(kind, value, context):
    """A property value read as its ``PROPERTIES`` type."""
    if kind is float:
        return _num(value, context)
    if kind is tuple:
        return tuple(str(x) for x in _list(value, context))
    return str(value)


def _node(cls, item, read, context, **fields):
    """The ``cls`` node an entry describes.  ``fields`` holds what the caller
    took from the ``read`` keys; every other key must be a property of cls."""
    properties = _BY_PROPERTY[cls]
    for key, value in item.items():
        if key in read:
            continue
        if key not in properties:
            raise SchemaError(f"{context}: unknown property {key!r}")
        attr, kind = properties[key]
        fields[attr] = _value(kind, value, f"{context} {key}")
    return cls(id=str(item["id"]), **fields)


def _from_tree(data: dict) -> PipelineGraph:
    _known(data, _SECTIONS, "document")
    head = data.get("ETLPipeline")
    if not isinstance(head, dict) or "id" not in head:
        raise SchemaError("missing ETLPipeline section with an id")
    _known(head, _HEAD_KEYS, "ETLPipeline")

    seen = set()  # node ids: one node per id across every section
    tasks = []
    for item in _items(data, "tasks", seen):
        kind = item.get("type")
        if kind not in TASK_KINDS:
            raise SchemaError(f"task {item.get('id')}: unknown task class {kind!r}")
        tasks.append(_node(TaskNode, item, ("id", "type"), f"task {item['id']}", kind=kind))
    entities = [_node(DataEntity, item, ("id",), f"data entity {item['id']}")
                for item in _items(data, "data_entities", seen)]

    layers = []
    for item in _items(data, "layers", seen):
        _known(item, ("id", "type"), f"layer {item['id']}")
        kind = item.get("type", "Layer")
        if kind not in _LAYER_KINDS:
            raise SchemaError(f"layer {item['id']}: unknown layer class {kind!r}")
        layers.append(Layer(id=str(item["id"]), kind=kind))

    handlers = [_node(IOHandler, item, ("id",), f"IO handler {item['id']}")
                for item in _items(data, "io_handlers", seen)]

    edges = []
    for triple in _list(data.get("edges"), "edges"):
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise SchemaError(f"edge {triple!r} is not a [subject, property, object] triple")
        s, rel, o = (str(x) for x in triple)
        if rel not in EDGE_RELATIONS:
            raise SchemaError(f"unknown relation {rel!r}")
        edges.append((rel, s, o))

    return PipelineGraph(
        id=str(head["id"]),
        frequency_class=str(head.get("frequency", "frequent")),
        layers=tuple(layers),
        tasks=tuple(tasks),
        data_entities=tuple(entities),
        io_handlers=tuple(handlers),
        edges=tuple(edges),
    )


def _item(node, **keys):
    """A node's document entry: its id, ``keys``, then each property set."""
    item = {"id": node.id, **keys}
    for attr, prop, kind in PROPERTIES[type(node)]:
        value = getattr(node, attr)
        if value is None:
            continue
        item[prop] = list(value) if kind is tuple else value
    return item


def serialize_pipeline(graph: PipelineGraph) -> str:
    """Canonical JSON document text; ``parse_pipeline`` inverts it exactly."""
    doc = {
        "format": FORMAT,
        "ETLPipeline": {"id": graph.id, "frequency": graph.frequency_class},
        "layers": [{"id": l.id, "type": l.kind} for l in graph.layers],
        "tasks": [_item(t, type=t.kind) for t in graph.tasks],
        "data_entities": [_item(d) for d in graph.data_entities],
        "io_handlers": [_item(io) for io in graph.io_handlers],
        "edges": [[s, rel, o] for rel, s, o in graph.edges],
    }
    return json.dumps(doc, indent=2) + "\n"
