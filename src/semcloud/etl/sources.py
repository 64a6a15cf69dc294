"""Heterogeneous source ingestion and mapping to the unified schema."""

import csv
import dataclasses
import functools
import json
import re
import xml.etree.ElementTree as ET

from .errors import BadCell, MappingGap, UnreadableSource
from .records import KEY_FIELDS, NULL_TOKEN, UNIFIED_ATTRIBUTES, UnifiedRecord


@dataclasses.dataclass(frozen=True)
class SourceDescriptor:
    """One heterogeneous source and how its fields map onto the schema.

    field_mapping is injective source-field -> unified-property; absent
    lists unified attributes this source does not carry at all.
    """

    format: str  # csv | json | xml
    location: str
    field_mapping: tuple  # ((source_field, unified_property), ...)
    absent: tuple
    record_bytes: int


@dataclasses.dataclass(frozen=True)
class Reject:
    source: str
    index: int
    reason: str


def ingest(descriptor):
    """Read one source into raw field dicts plus a reject channel.

    Returns (raw_records, rejects).  Structural problems with single
    records become Rejects; an unreadable container raises
    UnreadableSource.
    """
    try:
        with open(descriptor.location) as fh:
            text = fh.read()
    except OSError as exc:
        raise UnreadableSource("%s: %s" % (descriptor.location, exc))
    if descriptor.format == "csv":
        return _ingest_csv(descriptor, text)
    if descriptor.format == "json":
        return _ingest_json(descriptor, text)
    if descriptor.format == "xml":
        return _ingest_xml(descriptor, text)
    raise UnreadableSource("unknown source format %r" % descriptor.format)


def _ingest_csv(descriptor, text):
    # Rows end at line feeds only (the file was read with universal
    # newlines); str.splitlines would also break a cell at a vertical tab,
    # form feed, \x1c-\x1e, \x85 or a Unicode line or paragraph separator.
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    rows = list(csv.reader(lines))
    if not rows:
        return [], []
    header = rows[0]
    records, rejects = [], []
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            rejects.append(Reject(descriptor.location, i, "cell count mismatch"))
            continue
        records.append(dict(zip(header, row)))
    return records, rejects


def _ingest_json(descriptor, text):
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise UnreadableSource("%s: %s" % (descriptor.location, exc))
    if not isinstance(data, list):
        raise UnreadableSource("%s: expected a record array" % descriptor.location)
    records, rejects = [], []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            rejects.append(Reject(descriptor.location, i, "entry is not an object"))
            continue
        records.append(entry)
    return records, rejects


# Text that ElementTree would hand back unchanged: no markup, entity, "]]>",
# carriage return or character that XML 1.0 forbids.
_XML_TEXT = r"[^<&\]\r\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]*"
_XML_RECORD = re.compile(r"<record>.*?</record>", re.S)


@functools.lru_cache(maxsize=32)
def _xml_layout(tags):
    """(match, tags): the match method of the one compiled pattern of a
    plain record whose fields are ``tags`` in order, each value a group, and
    the tag tuple that every record read through it shares as its keys."""
    fields = "".join(rf"<{tag}>({_XML_TEXT})</{tag}>" for tag in map(re.escape, tags))
    return re.compile("<record>%s</record>" % fields).match, tags


def _layout_tag(tag):
    # A namespaced tag reads back as "{uri}b", and a "record" field would end
    # the block early, so a layout of either could match text that
    # ElementTree reads differently.
    return tag.isascii() and tag[0] != "{" and tag != "record"


def _ingest_xml(descriptor, text):
    # Record blocks are read individually so one truncated record
    # becomes a reject instead of poisoning the whole file.
    if "<records" not in text:
        raise UnreadableSource("%s: missing <records> wrapper" % descriptor.location)
    records, rejects = [], []
    find, match_block = text.find, _XML_RECORD.match
    layout, tags = None, ()
    matched_opens = i = 0
    start = find("<record>")
    while start >= 0:
        # A record with the fields of the last block ElementTree read that
        # set a layout, in the same order, takes one match; an empty
        # element is None, as ElementTree gives it.
        match = layout and layout(text, start)
        if match:
            records.append({tag: value or None for tag, value in zip(tags, match.groups())})
            matched_opens += 1
        else:
            # where no block matches, no later "<record>" has a "</record>"
            # after it either
            match = match_block(text, start)
            if match is None:
                break
            block = match.group()
            matched_opens += block.count("<record>")
            try:
                element = ET.fromstring(block)
            except ET.ParseError as exc:
                rejects.append(Reject(descriptor.location, i, "bad record: %s" % exc))
            else:
                keys = tuple(child.tag for child in element)
                if all(map(_layout_tag, keys)):
                    layout, tags = _xml_layout(keys)
                    keys = tags
                records.append(dict(zip(keys, [child.text for child in element])))
        i += 1
        start = find("<record>", match.end())
    total_opens = text.count("<record>")
    for j in range(total_opens - matched_opens):
        rejects.append(
            Reject(descriptor.location, matched_opens + j, "truncated record")
        )
    return records, rejects


_NULLS = (None, NULL_TOKEN)


def map_to_unified(raw_records, descriptor):
    """Rename and coerce raw records into UnifiedRecords.

    Unified attributes the source does not carry come out as explicit
    None, and so does a null cell: JSON null, an empty XML element or an
    empty CSV cell.  A source field without a mapping raises MappingGap;
    a null key, or a cell that is not a number, raises BadCell.  Records
    with the keys of the record before them, in the same order, reuse its
    field plan.
    """
    unified = []
    keys = None
    for index, raw in enumerate(raw_records):
        if tuple(raw) != keys:
            keys = tuple(raw)
            machine, program, stamp, fields = plan = _field_plan(raw.keys(), descriptor, index)
        try:
            machine_id, program_id = raw[machine], raw[program]
            if machine_id in _NULLS or program_id in _NULLS:
                raise ValueError
            values = tuple([None if cell is None or cell == NULL_TOKEN else float(cell)
                            for cell in map(raw.get, fields)])
            unified.append(UnifiedRecord(str(machine_id), str(program_id), float(raw[stamp]),
                                         values, descriptor.record_bytes))
        except (TypeError, ValueError):
            raise _bad_cell(raw, plan, descriptor.location, index) from None
    return unified


def _field_plan(keys, descriptor, index):
    """(machine, program, timestamp, fields): the source field of each key,
    then of each unified attribute, or None where the record has none."""
    mapping = dict(descriptor.field_mapping)
    for field in keys:
        if field not in mapping:
            raise MappingGap(
                "%s: field %r has no unified mapping" % (descriptor.location, field)
            )
    source_of = {prop: field for field, prop in mapping.items() if field in keys}
    for prop in KEY_FIELDS:
        if prop not in source_of:
            raise MappingGap(
                "%s: record %d has no field for %r" % (descriptor.location, index, prop)
            )
    return tuple(source_of[prop] for prop in KEY_FIELDS) + (
        tuple(map(source_of.get, UNIFIED_ATTRIBUTES)),)


def _bad_cell(raw, plan, source, index):
    """The BadCell for the first cell of raw that its plan cannot read."""
    machine, program, stamp, fields = plan
    for field in (machine, program):
        if raw[field] in _NULLS:
            return BadCell(source, index, field, raw[field], "a key")
    for field in (stamp,) + fields:
        cell = raw.get(field)
        if field != stamp and cell in _NULLS:
            continue
        try:
            float(cell)
        except (TypeError, ValueError):
            return BadCell(source, index, field, cell)
    raise AssertionError("%s: record %d has no bad cell" % (source, index))
