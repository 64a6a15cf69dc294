"""Pipeline knowledge graph: model, validation, documents, fact translation."""

import dataclasses

import pytest
import yaml

from semcloud.datalog import FactSet, query
from semcloud.kg import (
    FORMAT,
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
    from_facts,
    infrequent_pipeline,
    parse_pipeline,
    serialize_pipeline,
    to_facts,
    validate,
)


def tree_to_triples(tree):
    """The ``triples:`` spelling of a tree-form pipeline document."""
    head = tree["ETLPipeline"]
    triples = [[head["id"], "a", "ETLPipeline"]]
    triples += [[head["id"], key, value] for key, value in head.items() if key != "id"]
    for section, default_class in (("layers", None), ("tasks", None),
                                   ("data_entities", "DataEntity"),
                                   ("io_handlers", "IOHandler")):
        for item in tree.get(section, []):
            triples.append([item["id"], "a", item.get("type", default_class)])
            for key, value in item.items():
                if key in ("id", "type"):
                    continue
                values = value if key in ("hasInput", "hasOutput") else [value]
                triples += [[item["id"], key, v] for v in values]
    triples += tree.get("edges", [])
    return triples


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
        assert validate(g).ok

    def test_infrequent_pipeline_shape(self):
        g = infrequent_pipeline()
        assert [t.kind for t in g.tasks] == ["Retrieve", "Prepare", "Store"]
        assert validate(g).ok

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
        bad = g.with_tasks(swapped)
        report = validate(bad)
        assert not report.ok
        assert tasks  # keep the original around for clarity

    def test_two_retrieve_roots_is_a_violation(self):
        g = infrequent_pipeline()
        extra = TaskNode(id="p0_tx", kind="Retrieve", io=None)
        bad = dataclasses.replace(g, tasks=g.tasks + (extra,))
        report = validate(bad)
        assert not report.ok
        assert any("root" in str(v) for v in report.violations)

    def test_records_without_volume_is_a_violation(self):
        g = infrequent_pipeline()
        entities = tuple(
            dataclasses.replace(d, volume=0.0, no_records=10.0)
            if d.location == "source" else d
            for d in g.data_entities
        )
        report = validate(dataclasses.replace(g, data_entities=entities))
        assert any("requires v > 0" in str(v) for v in report.violations)

    def test_cycle_is_a_violation(self):
        g = infrequent_pipeline()
        last = g.tasks[-1].id
        first = g.tasks[0].id
        bad = dataclasses.replace(
            g, edges=g.edges + (("hasNextTask", last, first),))
        report = validate(bad)
        assert any("cyclic" in str(v) for v in report.violations)

    def test_negative_reservation_is_a_violation(self):
        g = frequent_pipeline(memory_reservation=-1.0)
        report = validate(g)
        assert any("positive" in str(v) for v in report.violations)


class TestDocument:
    def test_serialize_parse_identity(self):
        g = frequent_pipeline("p1", chunk_size=100.0, slice_size=10.0,
                              slice_time=0.5, prepare_time=1.5,
                              memory_reservation=64.0, storage_mode="fast")
        assert parse_pipeline(serialize_pipeline(g)) == g

    def test_parse_rejects_unknown_format(self):
        with pytest.raises(SchemaError):
            parse_pipeline("format: something-else/9\n")

    def test_parse_rejects_invalid_structure(self):
        g = infrequent_pipeline()
        extra = TaskNode(id="p0_tx", kind="Retrieve", io=None)
        bad = dataclasses.replace(g, tasks=g.tasks + (extra,))
        with pytest.raises(StructureError):
            parse_pipeline(serialize_pipeline(bad))

    def test_parse_rejects_cycle(self):
        g = infrequent_pipeline()
        bad = dataclasses.replace(
            g, edges=g.edges + (("hasNextTask", g.tasks[-1].id, g.tasks[0].id),))
        with pytest.raises(CycleError):
            parse_pipeline(serialize_pipeline(bad))

    def test_parse_not_yaml(self):
        with pytest.raises(SchemaError):
            parse_pipeline(":\n  - ][")

    @pytest.mark.parametrize("build", [frequent_pipeline, infrequent_pipeline])
    def test_triples_spelling_parses_to_the_tree_graph(self, build):
        g = build()
        document = yaml.safe_dump({"format": FORMAT, "triples": tree_to_triples(
            yaml.safe_load(serialize_pipeline(g)))})
        assert parse_pipeline(document) == g


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
        g = infrequent_pipeline()
        extra = TaskNode(id="p0_tx", kind="Retrieve", io=None)
        with pytest.raises(InvalidGraph):
            to_facts(dataclasses.replace(g, tasks=g.tasks + (extra,)))

    def test_from_facts_inverts_to_facts(self):
        g = frequent_pipeline("p1", chunk_size=100.0, slice_size=10.0,
                              slice_time=0.5, prepare_time=1.5,
                              memory_reservation=64.0, storage_mode="fast")
        h = from_facts(to_facts(g), "p1")
        # ordering of the collections is not significant
        assert set(h.tasks) == set(g.tasks)
        assert set(h.data_entities) == set(g.data_entities)
        assert set(h.io_handlers) == set(g.io_handlers)
        assert set(h.edges) == set(g.edges)
        assert (h.id, h.frequency_class, h.depends_on) == (
            g.id, g.frequency_class, g.depends_on)
        # and the fact translation of both graphs is identical
        assert to_facts(h) == to_facts(g)

    def test_from_facts_needs_a_pipeline(self):
        with pytest.raises(InvalidGraph):
            from_facts(FactSet([("hasVolume", ("d1", 1.0))]))


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

    def test_unknown_storage_id_rejected(self):
        g = frequent_pipeline("p1")
        with pytest.raises(InvalidGraph):
            apply_configuration(g, self.config("tape"), None)
