"""Invariant checks over pipeline graphs."""

from __future__ import annotations

from ..storage import STORAGE_MODES
from .errors import CycleError, StructureError
from .model import FREQUENCY_CLASSES, PipelineGraph, TASK_KINDS


def validate(graph: PipelineGraph) -> None:
    """Return on a valid graph; otherwise raise CycleError when hasNextTask is
    cyclic and StructureError when it is not, with one ``node: message`` line
    per violation."""
    violations = []

    def report(node, message):
        violations.append(f"{node}: {message}")

    if graph.frequency_class not in FREQUENCY_CLASSES:
        report(graph.id, f"unknown frequency class {graph.frequency_class!r}")

    # every check reads these maps, built in one pass over each collection
    tasks = {}  # task by id, first occurrence
    owners = {}  # tasks by IO handler id
    for t in graph.tasks:
        tasks.setdefault(t.id, t)
        owners.setdefault(t.io, []).append(t)
        if t.kind not in TASK_KINDS:
            report(t.id, f"unknown task kind {t.kind!r}")
    handlers = {io.id for io in graph.io_handlers}
    succ, indegree = {}, {}  # over every hasNextTask endpoint, tasks or not
    next_pairs = [(s, o) for rel, s, o in graph.edges if rel == "hasNextTask"]
    for s, o in next_pairs:
        succ.setdefault(s, []).append(o)
        indegree.setdefault(s, 0)
        indegree[o] = indegree.get(o, 0) + 1
    start = next((o for rel, _, o in graph.edges if rel == "hasStartTask"), None)

    # -- task chain shape ----------------------------------------------------
    # Kahn's algorithm: hasNextTask is cyclic iff some endpoint never
    # reaches in-degree 0 (``ready`` grows while it is walked)
    remaining = dict(indegree)
    ready = [n for n, d in remaining.items() if d == 0]
    for n in ready:
        for o in succ.get(n, ()):
            remaining[o] -= 1
            if remaining[o] == 0:
                ready.append(o)
    cyclic = len(ready) < len(remaining)
    if cyclic:
        report(graph.id, "hasNextTask relation is cyclic")

    roots = [t.id for t in graph.tasks if not indegree.get(t.id)]
    sinks = [t.id for t in graph.tasks if t.id not in succ]
    if graph.tasks:
        if len(roots) != 1 or (roots and tasks[roots[0]].kind != "Retrieve"):
            report(graph.id, f"expected a single Retrieve root, found roots {roots}")
        if len(sinks) != 1 or (sinks and tasks[sinks[0]].kind != "Store"):
            report(graph.id, f"expected a single Store sink, found sinks {sinks}")
    for s, o in next_pairs:
        for end in (s, o):
            if end not in tasks:
                report(end, "hasNextTask endpoint is not a task")

    if graph.tasks and start is None:
        report(graph.id, "missing hasStartTask edge")
    elif start is not None and start not in tasks:
        report(start, "hasStartTask target is not a task")

    if not cyclic and graph.tasks and start in tasks:
        # the sorted task kinds of each level of successors from the start
        # task (an empty start id walks nothing)
        levels, seen, frontier = [], set(), [start] if start else []
        while frontier:
            levels.append(sorted({tasks[n].kind for n in frontier if n in tasks}))
            seen.update(frontier)
            frontier = list(dict.fromkeys(
                o for n in frontier for o in sorted(succ.get(n, ())) if o not in seen))
        flat_ok = all(len(k) == 1 for k in levels)
        kinds = [k[0] for k in levels if len(k) == 1]
        if graph.frequency_class == "frequent":
            good = (
                flat_ok
                and len(kinds) >= 4
                and kinds[0] == "Retrieve"
                and kinds[1] == "Slice"
                and kinds[-1] == "Store"
                and all(k == "Prepare" for k in kinds[2:-1])
            )
        else:
            good = flat_ok and kinds == ["Retrieve", "Prepare", "Store"]
        if not good:
            report(
                graph.id,
                f"task kind sequence {levels} is not legal for a "
                f"{graph.frequency_class} pipeline",
            )

    # -- kind-specific fields --------------------------------------------------
    for t in graph.tasks:
        if t.kind == "Slice":
            if t.chunk_size is None or t.slice_size is None:
                pass  # sizes are set by configuration, absence is legal
            elif not (t.chunk_size >= t.slice_size >= 1):
                report(t.id, f"requires nc >= ns >= 1, got nc={t.chunk_size} ns={t.slice_size}")
        else:
            if t.chunk_size is not None or t.slice_size is not None:
                report(t.id, f"chunk/slice size on a {t.kind} task")
        if t.storage_mode is not None and t.kind != "Store":
            report(t.id, f"storage mode on a {t.kind} task")
        if t.storage_mode is not None and t.storage_mode not in STORAGE_MODES:
            report(t.id, f"unknown storage mode {t.storage_mode!r}")
        if t.memory_reservation is not None:
            if t.kind not in ("Slice", "Prepare"):
                report(t.id, f"memory reservation on a {t.kind} task")
            elif t.memory_reservation <= 0:
                report(t.id, "memory reservation must be positive")
        if t.io is not None and t.io not in handlers:
            report(t.id, f"unknown IO handler {t.io}")

    # -- data entities ---------------------------------------------------------
    for d in graph.data_entities:
        if d.volume < 0 or d.no_records < 0:
            report(d.id, "volume and record count must be nonnegative")
        if d.no_records > 0 and d.volume == 0:
            report(d.id, "records without volume (n > 0 requires v > 0)")

    producers: dict = {}
    consumer_kinds: dict = {}
    for io in graph.io_handlers:
        for out in io.outputs:
            producers.setdefault(out, []).append(io.id)
        for inp in io.inputs:
            for t in owners.get(io.id, ()):
                consumer_kinds.setdefault(inp, set()).add(t.kind)
    for d in graph.data_entities:
        made_by = producers.get(d.id, [])
        if len(made_by) != 1:
            report(d.id, f"must be output of exactly one IO handler, got {made_by}")
        if len(consumer_kinds.get(d.id, set())) > 1:
            report(d.id, "consumed by more than one downstream task set")

    if violations:
        raise (CycleError if cyclic else StructureError)("\n".join(violations))
