"""Pipeline knowledge graph: model, validation, documents, fact translation."""

import dataclasses
import json
import sys

import pytest
from click.testing import CliRunner

from semcloud.cli import main
from semcloud.datalog import query
from semcloud.kg import (
    CloudAttributes,
    CycleError,
    DataEntity,
    InvalidGraph,
    PipelineGraph,
    ResourceConfiguration,
    SchemaError,
    StructureError,
    TaskNode,
    apply_configuration,
    frequent_pipeline,
    parse_pipeline,
    serialize_pipeline,
    to_facts,
    validate,
)


def default_cloud():
    return CloudAttributes(
        id="c1",
        memory_buffer_coefficient=0.667,
        storage_buffer_coefficient=0.667,
        max_memory_coefficient=1.5,
        node_memory=128.0,
        node_storage=4096.0,
        fast_storage="fast_storage",
        cloud_storage="cloud_storage",
    )


# The minimal three-task pipeline, Retrieve -> Prepare -> Store, as a user
# writes it.
INFREQUENT_DOCUMENT = """{"format": "semcloud-pipeline/1",
 "ETLPipeline": {"id": "p0", "frequency": "infrequent"},
 "tasks": [{"id": "p0_t1", "type": "Retrieve", "hasIO": "p0_io1"},
           {"id": "p0_t2", "type": "Prepare", "hasIO": "p0_io2"},
           {"id": "p0_t3", "type": "Store", "hasIO": "p0_io3"}],
 "data_entities": [{"id": "p0_d1", "hasVolume": 1.0, "hasNoRecords": 100.0, "storedAt": "source"},
                   {"id": "p0_d2", "hasVolume": 1.0, "hasNoRecords": 100.0},
                   {"id": "p0_d3", "hasVolume": 1.0, "hasNoRecords": 100.0}],
 "io_handlers": [{"id": "p0_io1", "hasOutput": ["p0_d1"]},
                 {"id": "p0_io2", "hasInput": ["p0_d1"], "hasOutput": ["p0_d2"]},
                 {"id": "p0_io3", "hasInput": ["p0_d2"], "hasOutput": ["p0_d3"]}],
 "edges": [["p0", "hasStartTask", "p0_t1"], ["p0_t1", "hasNextTask", "p0_t2"],
           ["p0_t2", "hasNextTask", "p0_t3"]]}"""


def infrequent_graph():
    return parse_pipeline(INFREQUENT_DOCUMENT)


class Pilot:
    slice_memory = 20.0
    prepare_memory = 30.0
    slice_storage = 40.0
    prepare_storage = 50.0
    store_storage = 60.0


class TestBuildersAndValidate:
    def test_frequent_pipeline_shape(self):
        g = frequent_pipeline("p1", prepare_tasks=2)
        assert len(g.tasks) == 5
        kinds = [t.kind for t in g.tasks]
        assert kinds.count("Prepare") == 2
        assert validate(g) is None

    def test_store_before_prepare_is_a_violation(self):
        g = frequent_pipeline("p1", prepare_tasks=1)
        tasks = {t.id: t for t in g.tasks}
        swapped = []
        for t in g.tasks:
            if t.kind == "Prepare":
                swapped.append(dataclasses.replace(t, kind="Store",
                                                   storage_mode=t.storage_mode))
            elif t.kind == "Store":
                swapped.append(dataclasses.replace(t, kind="Prepare"))
            else:
                swapped.append(t)
        bad = dataclasses.replace(g, tasks=tuple(swapped))
        with pytest.raises(StructureError, match="not legal"):
            validate(bad)
        assert tasks  # keep the original around for clarity

    def test_two_retrieve_roots_is_a_violation(self):
        g = infrequent_graph()
        extra = TaskNode(id="p0_tx", kind="Retrieve", io=None)
        bad = dataclasses.replace(g, tasks=g.tasks + (extra,))
        with pytest.raises(StructureError, match=r"(?m)^p0: expected a single Retrieve root"):
            validate(bad)

    def test_records_without_volume_is_a_violation(self):
        g = infrequent_graph()
        entities = tuple(
            dataclasses.replace(d, volume=0.0, no_records=10.0)
            if d.location == "source" else d
            for d in g.data_entities
        )
        with pytest.raises(StructureError, match="requires v > 0"):
            validate(dataclasses.replace(g, data_entities=entities))

    def test_cycle_is_a_violation(self):
        g = infrequent_graph()
        last = g.tasks[-1].id
        first = g.tasks[0].id
        bad = dataclasses.replace(
            g, edges=g.edges + (("hasNextTask", last, first),))
        with pytest.raises(CycleError, match="cyclic"):
            validate(bad)

    def test_negative_reservation_is_a_violation(self):
        g = frequent_pipeline(memory_reservation=-1.0)
        with pytest.raises(StructureError, match="positive") as raised:
            validate(g)
        assert type(raised.value) is StructureError

    def test_unknown_storage_mode_is_a_violation(self):
        g = frequent_pipeline(storage_mode="ssd")
        with pytest.raises(StructureError, match="unknown storage mode 'ssd'"):
            validate(g)
        with pytest.raises(StructureError):
            parse_pipeline(serialize_pipeline(g))

    @pytest.mark.parametrize("tasks, edges", [
        ((), [("p0_t2", "p0_t2")]),
        ((TaskNode(id="p0_ta", kind="Prepare"), TaskNode(id="p0_tb", kind="Prepare")),
         [("p0_ta", "p0_tb"), ("p0_tb", "p0_ta")]),
        ((), [("p0_t3", "ghost"), ("ghost", "p0_t1")]),
    ], ids=["self-loop", "off-the-start-task", "through-a-non-task"])
    def test_every_hasnexttask_cycle_is_a_cycle(self, tasks, edges):
        g = infrequent_graph()
        bad = dataclasses.replace(g, tasks=g.tasks + tasks,
                                  edges=g.edges + tuple(("hasNextTask", s, o) for s, o in edges))
        with pytest.raises(CycleError, match=r"(?m)^p0: hasNextTask relation is cyclic$"):
            validate(bad)


def chain_pipeline(prepare_tasks):
    """A frequent pipeline whose Prepare tasks follow one another in one chain."""
    g = frequent_pipeline("p1", prepare_tasks=prepare_tasks)
    order = [t.id for t in g.tasks]  # Retrieve, Slice, the Prepares, Store
    edges = [e for e in g.edges if e[0] != "hasNextTask"]
    edges += [("hasNextTask", s, o) for s, o in zip(order, order[1:])]
    return dataclasses.replace(g, edges=tuple(edges))


class TestLargeGraphs:
    """Validation walks the graph without recursion, so no task count reaches
    Python's recursion limit."""

    TASKS = 3 * sys.getrecursionlimit()

    @pytest.mark.parametrize("build", [
        chain_pipeline,
        lambda n: frequent_pipeline("p1", prepare_tasks=n),
    ], ids=["chain", "fan-out"])
    def test_parse_and_translate(self, build):
        g = build(self.TASKS)
        assert parse_pipeline(serialize_pipeline(g)) == g
        assert len(query(to_facts(g), "Prepare", 1)) == self.TASKS

    def test_configure_reads_the_chain_document(self, tmp_path):
        # the document is valid; the project has no pilot stats, so configure
        # fails after parsing it, with one status line
        path = tmp_path / "chain.yaml"
        path.write_text(serialize_pipeline(chain_pipeline(self.TASKS)))
        project = tmp_path / "project.yaml"
        project.write_text(f"seed: 0\nworkdir: {tmp_path / 'out'}\n")
        result = CliRunner().invoke(main, ["-c", str(project), "configure", "--pipeline",
                                           str(path)])
        assert result.exit_code == 1
        assert [line for line in result.stderr.splitlines()
                if line.startswith("semcloud-status ")] == [
            "semcloud-status command=configure ok=0 error=InputError"]
        assert "Traceback" not in result.output + result.stderr


class TestDocument:
    def test_serialize_parse_identity(self):
        g = frequent_pipeline("p1", chunk_size=100.0, slice_size=10.0,
                              slice_time=0.5, prepare_time=1.5,
                              memory_reservation=64.0, storage_mode="fast")
        assert parse_pipeline(serialize_pipeline(g)) == g

    def test_parse_rejects_unknown_format(self):
        with pytest.raises(SchemaError, match="^unsupported format 'something-else/9'"):
            parse_pipeline('{"format": "something-else/9"}')

    def test_parse_rejects_invalid_structure(self):
        g = infrequent_graph()
        extra = TaskNode(id="p0_tx", kind="Retrieve", io=None)
        bad = dataclasses.replace(g, tasks=g.tasks + (extra,))
        with pytest.raises(StructureError):
            parse_pipeline(serialize_pipeline(bad))

    def test_parse_rejects_cycle(self):
        g = infrequent_graph()
        bad = dataclasses.replace(
            g, edges=g.edges + (("hasNextTask", g.tasks[-1].id, g.tasks[0].id),))
        with pytest.raises(CycleError):
            parse_pipeline(serialize_pipeline(bad))

    @pytest.mark.parametrize("text", [
        ":\n  - ][",
        "format: semcloud-pipeline/1\nETLPipeline:\n  id: p1\n",
    ], ids=["garbage", "block-yaml"])
    def test_parse_not_json(self, text):
        # block YAML, as earlier releases wrote documents, is one line that says so
        with pytest.raises(SchemaError, match="^unreadable document: not JSON: ") as raised:
            parse_pipeline(text)
        assert "\n" not in str(raised.value)

    @pytest.mark.parametrize("text", ["[]", "null"])
    def test_parse_rejects_a_root_that_is_not_an_object(self, text):
        with pytest.raises(SchemaError, match="^document root must be a mapping$"):
            parse_pipeline(text)

    @pytest.mark.parametrize("edit, reason", [
        (lambda tree: tree.update(tasks=[5]),
         "tasks: expected a mapping with an id, got 5"),
        (lambda tree: tree["tasks"][0].pop("id"),
         "tasks: expected a mapping with an id, got {'type': 'Retrieve', 'hasIO': 'p1_io1'}"),
        (lambda tree: tree.update(edges=5), "edges: expected a list, got 5"),
        (lambda tree: tree.update(layers="p1_l1"), "layers: expected a list, got 'p1_l1'"),
        (lambda tree: tree["io_handlers"][0].update(hasOutput=5),
         "IO handler p1_io1 hasOutput: expected a list, got 5"),
        (lambda tree: tree["tasks"][0].update(hasRequirementSet=5),
         "task p1_t1: unknown property 'hasRequirementSet'"),
        (lambda tree: tree["tasks"][1].update(hasChunkSize=True),
         "task p1_t2 hasChunkSize: expected a finite number, got True"),
        (lambda tree: tree["data_entities"][0].update(hasVolume=float("nan")),
         "data entity p1_d1 hasVolume: expected a finite number, got nan"),
        (lambda tree: tree["data_entities"][0].update(hasVolume=float("inf")),
         "data entity p1_d1 hasVolume: expected a finite number, got inf"),
        (lambda tree: tree.update(triples=[["p1_t1", "hasRequirementSet", 5]]),
         "document: unknown key 'triples'"),
        (lambda tree: tree.update(triples=5), "document: unknown key 'triples'"),
        (lambda tree: tree.update(layer=tree.pop("layers")), "document: unknown key 'layer'"),
        (lambda tree: tree["ETLPipeline"].update(frequncy="infrequent"),
         "ETLPipeline: unknown key 'frequncy'"),
        (lambda tree: tree["ETLPipeline"].update(dependsOn="p0"),
         "ETLPipeline: unknown key 'dependsOn'"),
        (lambda tree: tree["layers"][0].update(hasTask="p1_t1"),
         "layer p1_l1: unknown key 'hasTask'"),
        (lambda tree: tree["io_handlers"][0].update(hasIO="p1_io1"),
         "IO handler p1_io1: unknown property 'hasIO'"),
        (lambda tree: tree["tasks"][0].update(hasRequirementSet={"cpu": 1.0}),
         "task p1_t1: unknown property 'hasRequirementSet'"),
        (lambda tree: tree["edges"].append(["p1_t1", "hasIO", "p1_io9"]),
         "unknown relation 'hasIO'"),
        (lambda tree: tree["edges"].append(["p1_io1", "hasOutput", "p1_d9"]),
         "unknown relation 'hasOutput'"),
        (lambda tree: tree["edges"].append(["p1", "hasInputData", "p1_d1"]),
         "unknown relation 'hasInputData'"),
        (lambda tree: tree["tasks"].append(dict(tree["tasks"][2], hasMemoryReservation=5)),
         "tasks: id 'p1_t3' is used twice"),
        (lambda tree: tree["data_entities"].append(dict(tree["data_entities"][0], id="p1_t3")),
         "data_entities: id 'p1_t3' is used twice"),
    ], ids=["task-not-a-mapping", "task-without-id", "edges-not-a-list", "layers-not-a-list",
            "outputs-not-a-list", "requirements-not-a-mapping", "bool-size", "nan-volume",
            "inf-volume", "requirements-triple-not-a-mapping", "triples-not-a-list",
            "misspelt-section", "unknown-head-key", "depends-on", "unknown-layer-key",
            "unknown-io-handler-key", "unknown-requirement", "io-edge", "output-edge",
            "input-data-edge", "repeated-task-id", "task-id-on-a-data-entity"])
    def test_malformed_document_is_a_schema_error(self, edit, reason):
        tree = json.loads(serialize_pipeline(frequent_pipeline("p1", chunk_size=100.0,
                                                               slice_size=10.0)))
        edit(tree)
        # json.dumps writes a non-finite float as the NaN or Infinity token
        with pytest.raises(SchemaError) as raised:
            parse_pipeline(json.dumps(tree))
        assert str(raised.value) == reason

    @pytest.mark.parametrize("token", ["-Infinity", "1e999"])
    def test_non_finite_number_token_is_a_schema_error(self, token):
        # json.loads reads these tokens as infinite floats; _num rejects them
        text = serialize_pipeline(frequent_pipeline("p1"))
        assert text.count('"hasVolume": 100.0,') == 2
        text = text.replace('"hasVolume": 100.0,', '"hasVolume": %s,' % token, 1)
        with pytest.raises(SchemaError,
                           match="^data entity p1_d1 hasVolume: expected a finite number, got "):
            parse_pipeline(text)

    def test_repeated_id_is_named(self):
        tree = json.loads(serialize_pipeline(frequent_pipeline("p1")))
        assert tree["tasks"][2]["id"] == "p1_t3"
        tree["tasks"].append(dict(tree["tasks"][2], hasMemoryReservation=5))
        with pytest.raises(SchemaError, match="tasks: id 'p1_t3' is used twice"):
            parse_pipeline(json.dumps(tree))

    @pytest.mark.parametrize("build", [
        lambda: frequent_pipeline("p1", chunk_size=100.0, slice_size=10.0, slice_time=0.5,
                                  prepare_time=1.5, memory_reservation=64.0,
                                  storage_mode="fast"),
        infrequent_graph,
    ], ids=["preconfigured-frequent", "infrequent"])
    def test_serialized_text_is_a_fixed_point(self, build):
        g = build()
        text = serialize_pipeline(g)
        assert text.endswith("}\n")
        assert parse_pipeline(text) == g
        assert serialize_pipeline(parse_pipeline(text)) == text

    def test_deeply_nested_document_is_a_schema_error(self):
        # the JSON scanner recurses once per nesting level
        depth = 3 * sys.getrecursionlimit()
        with pytest.raises(SchemaError, match="nested too deeply"):
            parse_pipeline('{"format": "semcloud-pipeline/1", "ETLPipeline": %s%s}'
                           % ("[" * depth, "]" * depth))


class TestFacts:
    def test_to_facts_core_atoms(self):
        g = frequent_pipeline("p1", no_records=3870.0, volume_mb=4.6)
        facts = to_facts(g, default_cloud(), Pilot())
        assert query(facts, "ETLPipeline", 1) == [("p1",)]
        assert ("hasInputData", ("p1", "p1_d1")) in facts
        assert query(facts, "hasEstSliceMemory", 2) == [("p1", 20.0)]
        assert len(query(facts, "range", 1)) == 10

    def test_absent_fields_yield_no_atoms(self):
        g = frequent_pipeline("p1")  # no pre-configuration
        facts = to_facts(g)
        assert query(facts, "hasChunkSize", 2) == []
        assert query(facts, "hasStorageMode", 2) == []
        assert query(facts, "range", 1) == []  # no pilot, no range atoms

    def test_invalid_graph_is_rejected(self):
        g = infrequent_graph()
        extra = TaskNode(id="p0_tx", kind="Retrieve", io=None)
        with pytest.raises(StructureError, match="root"):
            to_facts(dataclasses.replace(g, tasks=g.tasks + (extra,)))



class TestApplyConfiguration:
    def config(self, storage="fast_storage"):
        return ResourceConfiguration(
            pipeline="p1", chunk_size=400.0, slice_size=40.0,
            storage=storage, slice_memory_reservation=30.0,
            prepare_memory_reservation=45.0)

    def test_fields_are_written(self):
        g = frequent_pipeline("p1")
        out = apply_configuration(g, self.config(), default_cloud())
        slice_task = out.tasks_of_kind("Slice")[0]
        assert slice_task.chunk_size == 400.0
        assert slice_task.slice_size == 40.0
        assert slice_task.memory_reservation == 30.0
        assert all(t.memory_reservation == 45.0
                   for t in out.tasks_of_kind("Prepare"))
        assert out.tasks_of_kind("Store")[0].storage_mode == "fast"

    def test_cloud_storage_id_maps_to_cloud_mode(self):
        g = frequent_pipeline("p1")
        out = apply_configuration(g, self.config("cloud_storage"), default_cloud())
        assert out.tasks_of_kind("Store")[0].storage_mode == "cloud"

    def test_idempotent(self):
        g = frequent_pipeline("p1")
        once = apply_configuration(g, self.config(), default_cloud())
        twice = apply_configuration(once, self.config(), default_cloud())
        assert once == twice

    def test_wrong_pipeline_id_rejected(self):
        g = frequent_pipeline("p2")
        with pytest.raises(InvalidGraph):
            apply_configuration(g, self.config(), default_cloud())

    # a literal mode name is not a storage id
    @pytest.mark.parametrize("storage", ["tape", "fast"])
    def test_unknown_storage_id_rejected(self, storage):
        g = frequent_pipeline("p1")
        with pytest.raises(InvalidGraph, match="unknown storage id"):
            apply_configuration(g, self.config(storage), default_cloud())
