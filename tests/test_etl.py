"""ETL core: workload generation, ingestion, slicing, prepare, store."""

import collections
import csv
import dataclasses
import hashlib
import json
import math
import operator
import pathlib
import random
import re
import time
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from semcloud.etl import (
    KEY_FIELDS,
    UNIFIED_ATTRIBUTES,
    BadCell,
    CapacityExceeded,
    EtlError,
    MappingGap,
    MissingReference,
    PreparedStore,
    ReferenceStore,
    Reject,
    Slice,
    SourceDescriptor,
    UnifiedRecord,
    UnreadableSource,
    WorkloadSpec,
    generate_workload,
    ingest,
    machine_ids,
    map_to_unified,
    prepare_slice,
    reference_entries,
    slice_records,
    store_prepared,
    write_unified,
)
from semcloud.etl import sources
from semcloud.etl.records import NULL_TOKEN, UNIFIED_HEADER, record_cells
from semcloud.etl.workload import PROGRAM_COUNT

# sha256 of each source GOLDEN_SPEC generates: every generated byte is pinned.
GOLDEN_SPEC = WorkloadSpec(machines=3, production_lines=1, duration=4.0, seed=11)
GOLDEN_DIGESTS = {
    "source_csv.csv": "bc36a744a80efb9b6844a9923693c20a29ea92b9d784bff1af667f36e0822906",
    "source_json.json": "07c8e541315debc37ae4cec15017566a67c862c65425e8d317a374dd7d62a85a",
    "source_xml.xml": "358c8c06b42f708cde472badc37f35adaa1a2029b5722487b959fbfffc6f48aa",
}

# sha256 over each source's stored slice files (.tsv and .ref, by name) after
# GOLDEN_SPEC goes through ingest -> map -> slice -> prepare -> store.
GOLDEN_STORE = (5, 3)  # (nc, ns)
GOLDEN_STORED_DIGESTS = {
    "csv": "d5e9b1b3d9b74d0b45976fd06154e37fe8b02c388bda0255daaa710e29c7c895",
    "json": "53339a9fc55de875479bcf9331326a5ede8f2fc054b455e82720bccdcbaf4a66",
    "xml": "12476d506989815947192f830a9b1379b3d2ee970b656b42ac87bd13e599b3d3",
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

    def test_generation_peak_does_not_grow_with_the_records(self, tmp_path):
        # the sources are written a block at a time, so twice the records
        # (two blocks, then four) allocate no more at their peak
        peaks = []
        for duration in (1024.0, 2048.0):
            spec = WorkloadSpec(machines=2, production_lines=1, duration=duration, seed=1)
            tracemalloc.start()
            try:
                generate_workload(spec, str(tmp_path / str(duration)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20, peaks

    def test_golden_bytes(self, tmp_path):
        generate_workload(GOLDEN_SPEC, str(tmp_path))
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in GOLDEN_DIGESTS}
        assert digests == GOLDEN_DIGESTS

    def test_golden_stored_bytes(self, tmp_path):
        by_source = unified_all(generate_workload(GOLDEN_SPEC, str(tmp_path / "sources")))
        programs = sorted({r.program_id for r in by_source["csv"]})
        references = ReferenceStore(reference_entries(
            machine_ids(GOLDEN_SPEC), programs, seed=GOLDEN_SPEC.seed))
        digests = {}
        for fmt, records in by_source.items():
            store = PreparedStore("fast", str(tmp_path / fmt))
            for slice_ in slice_records(records, *GOLDEN_STORE):
                store_prepared(prepare_slice(slice_, references), store)
            digest = hashlib.sha256()
            for path in sorted((tmp_path / fmt).iterdir()):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            digests[fmt] = digest.hexdigest()
        assert digests == GOLDEN_STORED_DIGESTS

    @staticmethod
    def drawn_records(spec):
        """The base records drawn one value at a time and rounded with round(v, 6)."""
        rng = np.random.RandomState(spec.seed)
        records = []
        for m_index, machine in enumerate(machine_ids(spec)):
            for k in range(spec.records_per_machine()):
                program = "p%d" % (rng.randint(PROGRAM_COUNT) + 1)
                values = tuple(round(float((10.0 * (j + 1) + 0.5 * m_index)
                                           * (1.0 + 0.1 * rng.rand())), 6)
                               for j in range(len(UNIFIED_ATTRIBUTES)))
                records.append(UnifiedRecord(machine, program, round(k / spec.rate, 6), values,
                                             spec.record_bytes))
        return records

    @pytest.mark.parametrize("spec", [
        GOLDEN_SPEC,
        WorkloadSpec(machines=47, production_lines=3, duration=3.0, seed=5),
        WorkloadSpec(machines=4, production_lines=2, duration=10.0, rate=0.7, seed=2),
    ], ids=["golden", "47-machines", "rate-0.7"])
    def test_written_cells_are_the_record_cells(self, spec, tmp_path):
        records = self.drawn_records(spec)
        desc = next(d for d in generate_workload(spec, str(tmp_path)) if d.format == "csv")
        columns = [UNIFIED_HEADER.index(prop) for _, prop in desc.field_mapping]
        lines = pathlib.Path(desc.location).read_text().splitlines()
        assert lines[0].split(",") == [field for field, _ in desc.field_mapping]
        assert [line.split(",") for line in lines[1:]] == [
            [cells[j] for j in columns] for cells in map(record_cells, records)]

    def test_mapped_record_layout(self, workload):
        _, descriptors = workload
        record = unified_all(descriptors)["xml"][0]
        assert not hasattr(record, "__dict__")
        assert len(record.values) == len(UNIFIED_ATTRIBUTES)
        assert record.attributes == tuple(zip(UNIFIED_ATTRIBUTES, record.values))
        assert dict(record.attributes)["expulsion_flag"] is None

    def test_json_source_is_what_json_dumps_writes(self, workload):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "json")
        text = pathlib.Path(desc.location).read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n"

    @pytest.mark.parametrize("fields", [
        {"duration": -5.0}, {"duration": math.inf}, {"rate": 0.0}, {"rate": math.nan},
        {"record_bytes": -1}, {"record_bytes": 0}, {"duration": 0.5},
        {"seed": -1}, {"seed": 2**32},
    ])
    def test_impossible_spec_rejected(self, fields):
        with pytest.raises(ValueError):
            WorkloadSpec(**fields)

    @pytest.mark.parametrize("seed", [None, 1.5])
    def test_non_integer_seed_rejected_when_built(self, seed):
        with pytest.raises(TypeError):
            WorkloadSpec(seed=seed)

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

    @pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_csv_rows_end_at_line_feeds_only(self, workload, tmp_path, mark):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "csv")
        lines = pathlib.Path(desc.location).read_text().splitlines()
        lines[2] = lines[2].replace(",p", ",p" + mark, 1)
        lines.insert(5, "broken,row")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        raws, rejects = ingest(dataclasses.replace(desc, location=str(bad)))
        assert rejects == [Reject(str(bad), 4, "cell count mismatch")]
        assert len(raws) == 60
        assert raws[1]["PROG_NO"].startswith("p" + mark)

    def test_a_quoted_csv_cell_keeps_the_line_feeds_it_spans(self, workload, tmp_path):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "csv")
        lines = pathlib.Path(desc.location).read_text().splitlines()
        program = lines[2].split(",")[1]
        lines[2] = lines[2].replace("," + program, ',"%s\n%s"' % (program[:1], program[1:]), 1)
        bad = tmp_path / "quoted.csv"
        bad.write_text("\n".join(lines) + "\n")
        raws, rejects = ingest(dataclasses.replace(desc, location=str(bad)))
        assert rejects == [] and len(raws) == 60
        assert raws[1]["PROG_NO"] == "%s\n%s" % (program[:1], program[1:])

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

    def test_xml_records_share_their_tag_strings(self, tmp_path):
        spec = WorkloadSpec(machines=4, production_lines=2, duration=43.2, seed=7)
        desc = next(d for d in generate_workload(spec, str(tmp_path)) if d.format == "xml")
        raws, rejects = ingest(desc)
        assert rejects == [] and len(raws) == spec.total_records()
        first = list(raws[0])
        assert all(len(raw) == len(first) and all(map(operator.is_, raw, first))
                   for raw in raws)

    def test_mapped_records_share_their_key_strings(self, workload):
        _, descriptors = workload
        for desc in descriptors:
            records = map_to_unified(ingest(desc)[0], desc)
            shared = {}
            for record in records:
                for key in (record.machine_id, record.program_id):
                    assert shared.setdefault(key, key) is key
            assert len(shared) == 6 + PROGRAM_COUNT

    def test_key_cells_that_compare_equal_map_to_their_own_strings(self, workload):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "json")
        raws = ingest(desc)[0][:3]
        for raw, cell in zip(raws, [1, 1.0, True]):
            raw["machineId"] = cell
        assert [r.machine_id for r in map_to_unified(raws, desc)] == ["1", "1.0", "True"]

    def test_missing_file_is_unreadable(self, workload):
        _, descriptors = workload
        desc = dataclasses.replace(descriptors[0], location="/nonexistent.csv")
        with pytest.raises(UnreadableSource):
            ingest(desc)

    @pytest.mark.parametrize("fmt", ["csv", "json", "xml"])
    def test_a_source_that_is_not_utf8_is_unreadable(self, workload, tmp_path, fmt):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == fmt)
        data = pathlib.Path(desc.location).read_bytes()
        bad = tmp_path / ("bad." + fmt)
        # a byte that no UTF-8 sequence holds, near the end of the file
        at = data.rindex(b"1")
        bad.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(UnreadableSource, match=re.escape(str(bad)) + ".*can't decode byte 0xff"):
            ingest(dataclasses.replace(desc, location=str(bad)))

    def test_a_csv_field_over_the_field_limit_is_unreadable(self, workload, tmp_path):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "csv")
        lines = pathlib.Path(desc.location).read_text().splitlines()
        lines[3] = lines[3].replace(",p", ",p" + "9" * csv.field_size_limit(), 1)
        bad = tmp_path / "long.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(UnreadableSource, match=re.escape(str(bad)) + ": field larger than"):
            ingest(dataclasses.replace(desc, location=str(bad)))

    def test_unmapped_field_raises_in_strict_mode(self, workload):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "json")
        raws, _ = ingest(desc)
        raws[0] = dict(raws[0], surprise=1.0)
        with pytest.raises(MappingGap):
            map_to_unified(raws, desc)

    def test_each_key_set_gets_its_own_field_plan(self, workload):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "json")
        raws, _ = ingest(desc)
        expected = map_to_unified(raws, desc)
        del raws[1]["forcePeak"]
        raws[2] = dict(reversed(raws[2].items()))
        records = map_to_unified(raws, desc)
        peak = UNIFIED_ATTRIBUTES.index("force_peak")
        assert records[1].values == (
            expected[1].values[:peak] + (None,) + expected[1].values[peak + 1:])
        assert records[0] == expected[0] and records[2:] == expected[2:]

    def test_reordered_or_changed_keys_get_a_fresh_plan(self, workload, monkeypatch):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "json")
        raws, _ = ingest(desc)
        expected = map_to_unified(raws, desc)
        raws[2] = dict(reversed(raws[2].items()))
        del raws[5]["forcePeak"]
        real, planned = sources._field_plan, []

        def spy(keys, descriptor, index):
            planned.append(index)
            return real(keys, descriptor, index)

        monkeypatch.setattr(sources, "_field_plan", spy)
        records = map_to_unified(raws, desc)
        assert planned == [0, 2, 3, 5, 6]
        assert records[:5] == expected[:5] and records[6:] == expected[6:]
        # a reordered record's errors name its own index
        reordered = dict(reversed(raws[7].items()))
        with pytest.raises(BadCell) as raised:
            map_to_unified(raws[:7] + [dict(reordered, forcePeak="abc")], desc)
        assert (raised.value.index, raised.value.field) == (7, "forcePeak")
        del reordered["timestamp"]
        with pytest.raises(MappingGap, match="record 7 has no field for 'timestamp'"):
            map_to_unified(raws[:7] + [reordered], desc)

    def test_record_without_a_key_field_is_a_mapping_gap(self, workload):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "json")
        raws, _ = ingest(desc)
        del raws[2]["timestamp"]
        with pytest.raises(MappingGap, match="record 2 has no field for 'timestamp'"):
            map_to_unified(raws, desc)
        assert len(map_to_unified(raws[:2], desc)) == 2

    @staticmethod
    def edited(desc, tmp_path, old, new):
        """desc over a copy of its source with the first `old` replaced by `new`."""
        text = pathlib.Path(desc.location).read_text()
        assert old in text
        path = tmp_path / pathlib.Path(desc.location).name
        path.write_text(text.replace(old, new, 1))
        return dataclasses.replace(desc, location=str(path))

    def test_empty_csv_cell_maps_to_none(self, workload, tmp_path):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "csv")
        header, first = pathlib.Path(desc.location).read_text().splitlines()[:2]
        column = header.split(",").index("FORCE_PEAK")
        cells = first.split(",")
        blanked = ",".join(cells[:column] + [NULL_TOKEN] + cells[column + 1:])
        raws, rejects = ingest(self.edited(desc, tmp_path, first, blanked))
        assert rejects == []
        records = map_to_unified(raws, desc)
        assert records[0].attribute("force_peak") is None
        assert records[0].attribute("force_mean") == float(cells[column - 1])

    def test_xml_text_is_a_bad_cell(self, workload, tmp_path):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == "xml")
        text = pathlib.Path(desc.location).read_text()
        cell = text[text.index("<force-peak>"):text.index("</force-peak>")]
        desc = self.edited(desc, tmp_path, cell, "<force-peak>abc")
        raws, rejects = ingest(desc)
        assert rejects == []
        with pytest.raises(BadCell) as raised:
            map_to_unified(raws, desc)
        assert isinstance(raised.value, EtlError)
        assert (raised.value.source, raised.value.index, raised.value.field) == (
            desc.location, 0, "force-peak")
        assert str(raised.value) == (
            "%s: record 0: field 'force-peak' holds 'abc', not a number" % desc.location)

    @pytest.mark.parametrize("fmt, field, cell", [
        ("json", "forcePeak", "abc"),
        ("json", "forcePeak", [1.0]),
        ("json", "machineId", None),
        ("csv", "TS", NULL_TOKEN),
        ("csv", "PROG_NO", NULL_TOKEN),
    ])
    def test_bad_cell_names_source_record_and_field(self, workload, fmt, field, cell):
        _, descriptors = workload
        desc = next(d for d in descriptors if d.format == fmt)
        raws, _ = ingest(desc)
        raws[3] = dict(raws[3], **{field: cell})
        with pytest.raises(BadCell) as raised:
            map_to_unified(raws, desc)
        assert (raised.value.source, raised.value.index, raised.value.field,
                raised.value.value) == (desc.location, 3, field, cell)


def block_by_block(location, text):
    """The reference XML reader: ElementTree parses every <record> block on
    its own."""
    if "<records" not in text:
        raise UnreadableSource(location)
    records, rejects, matched = [], [], 0
    for i, block in enumerate(re.findall(r"<record>.*?</record>", text, re.S)):
        matched += block.count("<record>")
        try:
            element = ET.fromstring(block)
        except ET.ParseError as exc:
            rejects.append(Reject(location, i, "bad record: %s" % exc))
            continue
        records.append({child.tag: child.text for child in element})
    for j in range(text.count("<record>") - matched):
        rejects.append(Reject(location, matched + j, "truncated record"))
    return records, rejects


class TestXmlDifferential:
    """ingest reads any document as the block-by-block reader does."""

    NAMES = ["a", "force-peak", "x.y_1", "_z", "A9", "xml", "xmlns", "records", "re",
             "record", "a\u00b2", "\u00e9", "a:b", "1a"]
    TEXTS = ["", "1.5", "12.0", "abc", "x&amp;y", "x&y", "a]]>b", "]", "a>b", "1\r\n2",
             "1\r2", "\n", " ", "\t", "\u00e9", "\x85", "\u2028", "\U0001f600", "\x01",
             "\x0c", "\ufffe", "&#65;", "&lt;"]

    def field(self, rnd):
        name = rnd.choice(self.NAMES)
        if rnd.random() < 0.75:
            return "<%s>%s</%s>" % (name, rnd.choice(self.TEXTS), name)
        return rnd.choice([
            "<%s/>", "<%s><![CDATA[x<y]]></%s>", "<!--c-->", "<%s><!--c-->1</%s>", "<?pi x?>",
            '<%s k="1">2</%s>', "<%s>1</b>", " ", "\n  ", "<%s>1", "</%s>", "<record>",
            "</record>", "<%s><c>1</c></%s>",
        ]).replace("%s", name)

    def record(self, rnd):
        body = "".join(self.field(rnd) for _ in range(rnd.randint(0, 4)))
        shape = rnd.random()
        if shape < 0.8:
            return "<record>%s</record>" % body
        if shape < 0.9:
            return "<record>%s" % body  # unclosed
        return "<record>%s%s</record>" % (body, self.record(rnd))  # nested

    def document(self, rnd):
        records = [self.record(rnd) for _ in range(rnd.randint(0, 5))]
        gap = rnd.choice(["", "\n", "\n  ", " x "])
        head = "<records>" if rnd.random() < 0.97 else "<recs>"
        return head + gap + gap.join(records) + gap + "</records>\n"

    @staticmethod
    def read(reader, *args):
        try:
            return reader(*args)
        except UnreadableSource:
            return "unreadable"

    @staticmethod
    def chunks(text, seed):
        """text cut into chunks of 1 to 13 characters, so the cuts fall inside
        tags and record blocks."""
        rnd, chunks, at = random.Random(seed), [], 0
        while at < len(text):
            size = rnd.randint(1, 13)
            chunks.append(text[at:at + size])
            at += size
        return chunks

    @staticmethod
    def count_layout_hits(monkeypatch):
        """A list that gains one entry for each record a layout takes."""
        hits, layout = [], sources._xml_layout

        def counted(tags):
            match, shared = layout(tags)

            def hit(text, pos):
                found = match(text, pos)
                if found:
                    hits.append(pos)
                return found
            return hit, shared
        monkeypatch.setattr(sources, "_xml_layout", counted)
        return hits

    def test_ingest_matches_the_block_by_block_reader(self, tmp_path, monkeypatch):
        hits = self.count_layout_hits(monkeypatch)
        rnd = random.Random(15)
        path = tmp_path / "doc.xml"
        desc = SourceDescriptor("xml", str(path), (), (), 1)
        started = time.monotonic()
        for case in range(1000):
            text = self.document(rnd)
            path.write_text(text)
            read = path.read_text()  # ingest reads with universal newlines
            assert self.read(ingest, desc) == self.read(block_by_block, str(path), read), case
            # the raw text too, carriage returns and all, whole and in chunks
            expected = self.read(block_by_block, str(path), text)
            assert self.read(sources._ingest_xml, desc, [text]) == expected, case
            assert self.read(sources._ingest_xml, desc, self.chunks(text, case)) == expected, case
        assert len(hits) > 100  # layouts took a share of the records
        assert time.monotonic() - started < 10.0

    LAYOUT_NAMES = ["a", "force-peak", "x.y_1", "xAy_1", "_z", "records", "re"]
    LAYOUT_TEXTS = ["", "1.5", "12.0", "abc", " ", "\n", "a>b"]
    # texts that a plain record cannot hold: an entity, and (in the raw text)
    # carriage returns
    ESCAPED_TEXTS = ["x&amp;y", "1\r\n2"]
    # blocks that break a run of plain records: empty, comment, CDATA, nested,
    # an element with an attribute, and a close tag that does not match
    BREAKS = ["<record></record>", "<record><!--c--></record>",
              "<record><a><![CDATA[x<y]]></a></record>",
              "<record><a>1</a><record><a>2</a></record></record>",
              '<record><a k="1">2</a></record>', "<record><a>1</b></record>"]

    def layout_record(self, rnd, tags):
        texts = [rnd.choice(self.LAYOUT_TEXTS) for _ in tags]
        if texts and rnd.random() < 0.05:
            texts[rnd.randrange(len(texts))] = rnd.choice(self.ESCAPED_TEXTS)
        return "<record>%s</record>" % "".join(
            "<%s>%s</%s>" % (tag, text, tag) for tag, text in zip(tags, texts))

    def layout_document(self, rnd):
        """Records that mostly share one to three tag sequences, some with a
        tag twice, between other blocks; now and then the last never closes."""
        layouts = []
        for _ in range(rnd.randint(1, 3)):
            tags = [rnd.choice(self.LAYOUT_NAMES) for _ in range(rnd.randint(0, 6))]
            if tags and rnd.random() < 0.3:
                tags.insert(rnd.randrange(len(tags)), rnd.choice(tags))
            layouts.append(tags)
        records, tags = [], layouts[0]
        for _ in range(rnd.randint(1, 16)):
            shape = rnd.random()
            if shape < 0.9:
                if rnd.random() < 0.1:
                    tags = rnd.choice(layouts)
                records.append(self.layout_record(rnd, tags))
            elif shape < 0.97:
                records.append(rnd.choice(self.BREAKS))
            else:
                records.append(self.record(rnd))
        if rnd.random() < 0.2 and records[-1].endswith("</record>"):
            records[-1] = records[-1][:-len("</record>")]
        gap = rnd.choice(["", "\n", "\n  ", "\r\n  "])
        return "<records>" + gap + gap.join(records) + gap + "</records>\n"

    def test_repeated_layouts_read_as_the_block_by_block_reader(self, tmp_path, monkeypatch):
        hits = self.count_layout_hits(monkeypatch)
        rnd = random.Random(24)
        path = tmp_path / "doc.xml"
        desc = SourceDescriptor("xml", str(path), (), (), 1)
        started = time.monotonic()
        blocks = 0
        for case in range(600):
            text = self.document(rnd) if case % 10 == 0 else self.layout_document(rnd)
            path.write_bytes(text.encode())
            read = path.read_text()  # ingest reads with universal newlines
            assert self.read(ingest, desc) == self.read(block_by_block, str(path), read), case
            expected = self.read(block_by_block, str(path), text)
            assert self.read(sources._ingest_xml, desc, [text]) == expected, case
            assert self.read(sources._ingest_xml, desc, self.chunks(text, case)) == expected, case
            blocks += read.count("<record>") + text.count("<record>")
        assert len(hits) > blocks / 2
        assert time.monotonic() - started < 10.0

    def test_a_layout_matches_its_tag_names_literally(self, tmp_path):
        desc = SourceDescriptor("xml", str(tmp_path / "doc.xml"), (), (), 1)
        text = ("<records><record><x.y_1>1</x.y_1><a>2</a></record>"
                "<record><xAy_1>3</xAy_1><a>4</a></record></records>")
        assert sources._ingest_xml(desc, [text]) == (
            [{"x.y_1": "1", "a": "2"}, {"xAy_1": "3", "a": "4"}], [])

    @pytest.mark.parametrize("first, second", [
        ('<b xmlns="u">1</b>', "<{u}b>2</{u}b>"),  # ElementTree reads the tag as {u}b
        ("<record/>", "<record></record>"),  # a record field ends the block
        ("<é>1</é>", "<é>2</é>"),
    ])
    def test_only_plain_ascii_tags_make_a_layout(self, tmp_path, monkeypatch, first, second):
        hits = self.count_layout_hits(monkeypatch)
        desc = SourceDescriptor("xml", str(tmp_path / "doc.xml"), (), (), 1)
        text = "<records><record>%s</record><record>%s</record></records>" % (first, second)
        assert sources._ingest_xml(desc, [text]) == block_by_block(desc.location, text)
        assert hits == []


class TestUnifiedFiles:
    @staticmethod
    def record():
        """A record whose attribute i holds float(i), but quality_score is null."""
        values = [float(i) for i in range(len(UNIFIED_ATTRIBUTES))]
        values[UNIFIED_ATTRIBUTES.index("quality_score")] = None
        return UnifiedRecord("m01", "p1", 12.5, tuple(values), 1250)

    def test_written_row_is_the_record_cells(self, tmp_path):
        record = self.record()
        path = tmp_path / "u.tsv"
        write_unified(path, [record])
        header, row = path.read_text().splitlines()
        assert tuple(header.split("\t")) == UNIFIED_HEADER
        cells = row.split("\t")
        assert cells == record_cells(record) + ["1250"]
        assert cells[UNIFIED_HEADER.index("quality_score")] == NULL_TOKEN

    def test_attribute_lookup(self):
        record = self.record()
        assert [record.attribute(name) for name in UNIFIED_ATTRIBUTES] == list(record.values)
        with pytest.raises(KeyError) as raised:
            record.attribute("machine_id")
        assert raised.value.args == ("machine_id",)

    def test_key_fields(self):
        assert KEY_FIELDS == ("machine_id", "program_id", "timestamp")


class TestSlicing:
    @staticmethod
    def records(counts):
        values = (1.0,) * len(UNIFIED_ATTRIBUTES)
        return [UnifiedRecord(machine, "p1", float(i), values, 100)
                for machine, count in counts.items() for i in range(count)]

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
        assert collections.Counter(flat) == collections.Counter(records)

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
        rows = pathlib.Path(receipt.location).read_text().splitlines()[1:]
        assert [row.split("\t")[:-1] for row in rows] == [
            record_cells(r.record) for r in prepared.records]

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
