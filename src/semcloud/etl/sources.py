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


# Characters of an XML source read at a time.
_CHUNK_CHARS = 1 << 16


def ingest(descriptor):
    """Read one source into raw field dicts plus a reject channel.

    Returns (raw_records, rejects).  Structural problems with single
    records become Rejects; an unreadable container raises
    UnreadableSource: a file that cannot be opened or is not UTF-8, a CSV
    field over the csv module's field limit, JSON that does not parse.
    A CSV source is read a line at a time and an XML source a chunk at a
    time; a JSON source is read whole, so json.loads shares one key string
    among every entry.
    """
    try:
        with open(descriptor.location) as fh:
            if descriptor.format == "csv":
                return _ingest_csv(descriptor, fh)
            if descriptor.format == "json":
                return _ingest_json(descriptor, fh.read())
            if descriptor.format == "xml":
                return _ingest_xml(descriptor, iter(functools.partial(fh.read, _CHUNK_CHARS), ""))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UnreadableSource("%s: %s" % (descriptor.location, exc))
    raise UnreadableSource("unknown source format %r" % descriptor.format)


def _ingest_csv(descriptor, lines):
    # Rows end at line feeds only (the file is read with universal
    # newlines), and a quoted cell keeps the line feeds it spans;
    # str.splitlines would also break a cell at a vertical tab, form feed,
    # \x1c-\x1e, \x85 or a Unicode line or paragraph separator.
    rows = csv.reader(lines)
    header = next(rows, None)
    if header is None:
        return [], []
    records, rejects = [], []
    for i, row in enumerate(rows):
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


def _xml_pieces(chunks):
    """The text of ``chunks`` cut after the last "</record>" of each chunk.

    No "<record>", "<records" or "</record>" spans a cut: none of them
    overlaps a "</record>", and the text before a cut ends with one.  So
    each record block, from a "<record>" to the first "</record>" after it,
    lies in one piece."""
    carry = ""
    for chunk in chunks:
        text = carry + chunk
        # carry holds no "</record>", so a new one ends in chunk
        cut = text.rfind("</record>", max(0, len(carry) - 8))
        if cut < 0:
            carry = text
        else:
            cut += len("</record>")
            yield text[:cut]
            carry = text[cut:]
    yield carry


def _ingest_xml(descriptor, chunks):
    # Record blocks are read individually so one truncated record
    # becomes a reject instead of poisoning the whole file.
    records, rejects = [], []
    match_block = _XML_RECORD.match
    layout, tags = None, ()
    wrapped = False
    total_opens = matched_opens = i = 0
    for text in _xml_pieces(chunks):
        wrapped = wrapped or "<records" in text
        total_opens += text.count("<record>")
        find = text.find
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
    if not wrapped:
        raise UnreadableSource("%s: missing <records> wrapper" % descriptor.location)
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
    field plan.  Records with the same key value share one machine_id or
    program_id string.
    """
    unified = []
    keys = None
    # keyed by the str of the cell, so 1, 1.0 and True stay apart
    share = {}.setdefault
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
            machine_id, program_id = str(machine_id), str(program_id)
            unified.append(UnifiedRecord(share(machine_id, machine_id),
                                         share(program_id, program_id), float(raw[stamp]),
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
