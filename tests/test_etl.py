"""ETL core: workload generation, ingestion, slicing, prepare, store."""

import dataclasses
import hashlib
import json
import math
import pathlib

import pytest

from semcloud.etl import (
    KEY_FIELDS,
    UNIFIED_ATTRIBUTES,
    CapacityExceeded,
    MappingGap,
    MissingReference,
    PreparedStore,
    ReferenceStore,
    Slice,
    SourceDescriptor,
    UnreadableSource,
    WorkloadSpec,
    check_descriptor,
    generate_workload,
    ingest,
    machine_ids,
    make_record,
    map_to_unified,
    prepare_slice,
    read_stored,
    read_unified,
    reference_entries,
    slice_records,
    store_prepared,
    write_unified,
)
from semcloud.etl.records import NULL_TOKEN, UNIFIED_HEADER, record_cells

# sha256 of each source GOLDEN_SPEC generates: every generated byte is pinned.
GOLDEN_SPEC = WorkloadSpec(machines=3, production_lines=1, duration=4.0, seed=11)
GOLDEN_DIGESTS = {
    "source_csv.csv": "bc36a744a80efb9b6844a9923693c20a29ea92b9d784bff1af667f36e0822906",
    "source_json.json": "07c8e541315debc37ae4cec15017566a67c862c65425e8d317a374dd7d62a85a",
    "source_xml.xml": "358c8c06b42f708cde472badc37f35adaa1a2029b5722487b959fbfffc6f48aa",
}


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    spec = WorkloadSpec(machines=6, duration=10.0, seed=3)
    out = tmp_path_factory.mktemp("workload")
    descriptors = generate_workload(spec, str(out))
    return spec, descriptors


def unified_all(descriptors):
    by_source = {}
    for desc in descriptors:
        raws, rejects = ingest(desc)
        assert rejects == []
        by_source[desc.format] = map_to_unified(raws, desc)
    return by_source


class TestWorkloadGeneration:
    def test_counts(self, workload):
        spec, descriptors = workload
        assert spec.records_per_machine() == 10
        assert spec.total_records() == 60
        assert {d.format for d in descriptors} == {"csv", "json", "xml"}
        per_source = {d.format: len(ingest(d)[0]) for d in descriptors}
        assert all(v == 60 for v in per_source.values())

    def test_deterministic(self, workload, tmp_path):
        spec, descriptors = workload
        again = generate_workload(spec, str(tmp_path))
        for a, b in zip(descriptors, again):
            assert pathlib.Path(a.location).read_bytes() == pathlib.Path(b.location).read_bytes()

    def test_golden_bytes(self, tmp_path):
        generate_workload(GOLDEN_SPEC, str(tmp_path))
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in GOLDEN_DIGESTS}
        assert digests == GOLDEN_DIGESTS

    def test_json_source_is_what_json_dumps_writes(self, workload):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "json")
        text = pathlib.Path(desc.location).read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n"

    @pytest.mark.parametrize("fields", [
        {"duration": -5.0}, {"duration": math.inf}, {"rate": 0.0}, {"rate": math.nan},
        {"record_bytes": -1}, {"record_bytes": 0}, {"duration": 0.5},
    ])
    def test_impossible_spec_rejected(self, fields):
        with pytest.raises(ValueError):
            WorkloadSpec(**fields)

    def test_machine_ids(self):
        ids = machine_ids(WorkloadSpec(machines=3))
        assert list(ids) == ["m01", "m02", "m03"]

    def test_cross_source_equality(self, workload):
        _, descriptors = workload
        by_source = unified_all(descriptors)
        # identity (keys) must agree everywhere; attribute sets differ only
        # by the per-source absent attributes, which map to None
        keys = {
            fmt: sorted((r.machine_id, r.program_id, r.timestamp)
                        for r in records)
            for fmt, records in by_source.items()
        }
        assert keys["csv"] == keys["json"] == keys["xml"]
        by_key = {
            fmt: {(r.machine_id, r.program_id, r.timestamp): dict(r.attributes)
                  for r in records}
            for fmt, records in by_source.items()
        }
        for key in by_key["csv"]:
            merged = {}
            for fmt in ("csv", "json", "xml"):
                for name, value in by_key[fmt][key].items():
                    if value is None:
                        continue
                    if name in merged:
                        assert merged[name] == pytest.approx(value), (fmt, name)
                    merged[name] = value
            assert set(merged) == set(UNIFIED_ATTRIBUTES)


class TestIngestion:
    def test_rejects_bad_csv_row(self, workload, tmp_path):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "csv")
        text = pathlib.Path(desc.location).read_text().splitlines()
        text.insert(3, "broken,row")  # wrong cell count
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(text) + "\n")
        raws, rejects = ingest(dataclasses.replace(desc, location=str(bad)))
        assert len(rejects) == 1
        assert len(raws) == 60

    def test_rejects_truncated_xml_record(self, workload, tmp_path):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "xml")
        text = pathlib.Path(desc.location).read_text()
        cut = text.rindex("</record>")
        bad = tmp_path / "bad.xml"
        bad.write_text(text[:cut])  # last record never closes
        raws, rejects = ingest(dataclasses.replace(desc, location=str(bad)))
        assert len(raws) == 59
        assert len(rejects) == 1

    def test_missing_file_is_unreadable(self, workload):
        _, descriptors = workload
        desc = dataclasses.replace(descriptors[0], location="/nonexistent.csv")
        with pytest.raises(UnreadableSource):
            ingest(desc)

    def test_unmapped_field_raises_in_strict_mode(self, workload):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "json")
        raws, _ = ingest(desc)
        raws[0] = dict(raws[0], surprise=1.0)
        with pytest.raises(MappingGap):
            map_to_unified(raws, desc)
        relaxed = map_to_unified(raws, desc, strict=False)
        assert len(relaxed) == len(raws)

    def test_check_descriptor_catches_duplicates(self, workload):
        _, descriptors = workload
        desc = descriptors[0]
        check_descriptor(desc)  # valid descriptor passes silently
        mapping = dict(desc.field_mapping)
        first, second = list(mapping)[:2]
        mapping[second] = mapping[first]  # two fields onto one attribute
        bad = dataclasses.replace(desc, field_mapping=tuple(mapping.items()))
        with pytest.raises(MappingGap):
            check_descriptor(bad)
        short = dataclasses.replace(desc, field_mapping=desc.field_mapping[:-1])
        with pytest.raises(MappingGap):
            check_descriptor(short)


class TestUnifiedFiles:
    def test_round_trip(self, tmp_path):
        values = {name: float(i) for i, name in enumerate(UNIFIED_ATTRIBUTES)}
        values["quality_score"] = None
        records = [make_record("m01", "p1", 12.5, values, 1250)]
        path = tmp_path / "u.tsv"
        write_unified(path, records)
        assert read_unified(path) == records
        cells = path.read_text().splitlines()[1].split("\t")
        assert cells == record_cells(records[0]) + ["1250"]
        assert cells[UNIFIED_HEADER.index("quality_score")] == NULL_TOKEN

    def test_attribute_lookup(self):
        values = {name: float(i) for i, name in enumerate(UNIFIED_ATTRIBUTES)}
        values["quality_score"] = None
        record = make_record("m01", "p1", 12.5, values, 1250)
        assert [record.attribute(name) for name in UNIFIED_ATTRIBUTES] == [
            values[name] for name in UNIFIED_ATTRIBUTES]
        with pytest.raises(KeyError) as raised:
            record.attribute("machine_id")
        assert raised.value.args == ("machine_id",)

    def test_key_fields(self):
        assert KEY_FIELDS == ("machine_id", "program_id", "timestamp")


class TestSlicing:
    @staticmethod
    def records(counts):
        values = {name: 1.0 for name in UNIFIED_ATTRIBUTES}
        out = []
        for machine, count in counts.items():
            for i in range(count):
                out.append(make_record(machine, "p1", float(i), values, 100))
        return out

    def test_hand_checked_partition(self):
        records = self.records({"m01": 6, "m02": 4})
        slices = list(slice_records(records, nc=10, ns=3))
        sizes = [(s.machine_id, len(s.records)) for s in slices]
        assert sizes == [("m01", 3), ("m01", 3), ("m02", 3), ("m02", 1)]
        assert [s.seq for s in slices] == [0, 1, 2, 3]

    def test_machine_purity(self):
        records = self.records({"m01": 7, "m02": 5, "m03": 3})
        for s in list(slice_records(records, nc=4, ns=2)):
            assert len({r.machine_id for r in s.records}) == 1

    def test_conservation(self):
        records = self.records({"m01": 13, "m02": 9})
        slices = list(slice_records(records, nc=5, ns=2))
        flat = [r for s in slices for r in s.records]
        assert sorted(r.identity() for r in flat) == sorted(
            r.identity() for r in records)

    def test_large_ns_single_slice_per_machine(self):
        records = self.records({"m01": 5})
        slices = list(slice_records(records, nc=100, ns=100))
        assert len(slices) == 1
        assert len(slices[0].records) == 5

    def test_mixed_machine_slice_rejected(self):
        records = self.records({"m01": 1, "m02": 1})
        with pytest.raises(ValueError):
            Slice(machine_id="m01", records=tuple(records), seq=0)


class TestPrepare:
    def test_join_attaches_reference(self):
        store = ReferenceStore(reference_entries(("m01",), ("p1",)))
        records = TestSlicing.records({"m01": 4})
        prepared = prepare_slice(next(slice_records(records, 4, 4)), store)
        assert len(prepared.records) == 4
        assert all(p.reference_meta for p in prepared.records)
        assert all(p.prepared_bytes > 100 for p in prepared.records)
        assert prepared.total_bytes() == sum(
            p.prepared_bytes for p in prepared.records)

    def test_missing_machine_reference(self):
        store = ReferenceStore(reference_entries(("m02",), ("p1",)))
        records = TestSlicing.records({"m01": 2})
        with pytest.raises(MissingReference) as exc:
            prepare_slice(next(slice_records(records, 2, 2)), store)
        assert exc.value.machine_id == "m01"

    def test_refresh_replaces_entries(self):
        store = ReferenceStore(reference_entries(("m01",), ("p1",)))
        store.refresh(reference_entries(("m02",), ("p1",)))
        assert store.machines() == ["m02"]

    def test_dump_load_round_trip(self, tmp_path):
        store = ReferenceStore(reference_entries(("m01", "m02"), ("p1", "p2")))
        path = tmp_path / "refs.json"
        store.dump(path)
        clone = ReferenceStore.load(path)
        assert clone.lookup("m02", "p1") == store.lookup("m02", "p1")


class TestStore:
    @staticmethod
    def prepared(count=4):
        store = ReferenceStore(reference_entries(("m01",), ("p1",)))
        records = TestSlicing.records({"m01": count})
        return prepare_slice(next(slice_records(records, count, count)), store)

    def test_receipt_and_round_trip(self, tmp_path):
        prepared = self.prepared()
        store = PreparedStore("fast", str(tmp_path))
        receipt = store_prepared(prepared, store)
        assert receipt.mode == "fast"
        assert receipt.record_count == 4
        assert receipt.bytes_written == prepared.total_bytes()
        loaded = read_stored(receipt.location)
        assert [r.identity() for r in loaded] == [
            r.record.identity() for r in prepared.records]

    def test_capacity_enforced(self, tmp_path):
        prepared = self.prepared()
        store = PreparedStore("cloud", str(tmp_path),
                              capacity_bytes=prepared.total_bytes() - 1)
        with pytest.raises(CapacityExceeded) as exc:
            store_prepared(prepared, store)
        assert exc.value.needed_bytes > exc.value.free_bytes

    def test_capacity_tracks_usage(self, tmp_path):
        prepared = self.prepared()
        store = PreparedStore("fast", str(tmp_path),
                              capacity_bytes=prepared.total_bytes())
        store_prepared(prepared, store)
        with pytest.raises(CapacityExceeded):
            store_prepared(prepared, store)
