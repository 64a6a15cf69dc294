"""Synthetic workload generator.

Emits the same underlying welding records as three heterogeneous
sources (CSV, JSON, XML) that disagree in field naming and attribute
availability.  Output is byte-deterministic for a given seed.
"""

import contextlib
import itertools
import json
import operator
import os
import re

from ..rng import LegacyRandom
from .records import KEY_FIELDS, UNIFIED_ATTRIBUTES, UNIFIED_HEADER
from .sources import SourceDescriptor

# Per-source field name schemes: the same unified property goes by a
# different name in every source system.
_CSV_NAME = {
    "machine_id": "M_ID",
    "program_id": "PROG_NO",
    "timestamp": "TS",
}
_JSON_NAME = {
    "machine_id": "machineId",
    "program_id": "programId",
    "timestamp": "timestamp",
}
_XML_NAME = {
    "machine_id": "machine",
    "program_id": "program",
    "timestamp": "time",
}

# Unified attributes each source system simply does not record.
_CSV_ABSENT = ("cap_wear_index", "quality_score")
_JSON_ABSENT = ("displacement_start", "displacement_end")
_XML_ABSENT = ("expulsion_flag",)

PROGRAM_COUNT = 5


def _csv_field(prop):
    return _CSV_NAME.get(prop, prop.upper())


def _json_field(prop):
    if prop in _JSON_NAME:
        return _JSON_NAME[prop]
    head, *rest = prop.split("_")
    return head + "".join(part.capitalize() for part in rest)


def _xml_field(prop):
    return _XML_NAME.get(prop, prop.replace("_", "-"))


_SCHEMES = (
    ("csv", _csv_field, _CSV_ABSENT),
    ("json", _json_field, _JSON_ABSENT),
    ("xml", _xml_field, _XML_ABSENT),
)


def machine_ids(spec):
    return ["m%02d" % (i + 1) for i in range(spec.machines)]


# A record's attribute cells come from one "%.6f " format call.  Dropping
# each cell's trailing zeros, and giving a whole number back its ".0",
# leaves repr(round(v, 6)) for 1e-4 <= |v| < 1e9; every generated value
# lies in [10, 1e9) (see _draws).
_ATTRIBUTE_CELLS = "%.6f " * len(UNIFIED_ATTRIBUTES)
_TRAILING_ZEROS = re.compile(r"0+ ")


def _draws(spec):
    """(machine, program, timestamp cell, row) of each record, drawn in the
    order of ``np.random.RandomState(spec.seed)``'s ``randint`` and ``rand``
    (``rng.LegacyRandom``); row holds the unrounded attribute values, each
    at least 10 and under 1.1 * (230 + spec.machines / 2).  The timestamp
    cell is repr(round(t, 6)) itself, since at a high rate t can be under
    1e-4."""
    rng = LegacyRandom(spec.seed)
    draw = rng.random
    per_machine = spec.records_per_machine()
    for m_index, machine in enumerate(machine_ids(spec)):
        base = [10.0 * (j + 1) + 0.5 * m_index for j in range(len(UNIFIED_ATTRIBUTES))]
        for k in range(per_machine):
            program = "p%d" % (rng.randint(PROGRAM_COUNT) + 1)
            row = [b * (1.0 + 0.1 * draw()) for b in base]
            yield machine, program, repr(round(k / spec.rate, 6)), row


def _cell_rows(spec):
    """The record_cells row of each generated record, drawn as it is asked
    for, without building the records."""
    strip, cells = _TRAILING_ZEROS.sub, _ATTRIBUTE_CELLS
    for machine, program, stamp, row in _draws(spec):
        yield ([machine, program, stamp]
               + strip(" ", cells % tuple(row)).replace(". ", ".0 ").split())


def _source_fields(field_of, absent):
    props = [p for p in KEY_FIELDS + UNIFIED_ATTRIBUTES if p not in absent]
    return [(field_of(prop), prop) for prop in props]


def _picker(fields):
    """A getter for the cells of a record_cells row that a source's fields carry."""
    return operator.itemgetter(*(UNIFIED_HEADER.index(prop) for _, prop in fields))


# Each source's text is head, then one line per record with joiner between
# them, then tail; a layout gives those and the line of a record_cells row.

def _csv_layout(fields):
    pick = _picker(fields)
    head = ",".join(field for field, _ in fields) + "\n"
    return head, "\n", "\n", lambda row: ",".join(pick(row))


def _json_layout(fields):
    # The exact text of json.dumps(entries, indent=1): the key strings are
    # quoted, and every other cell is a float repr, so already a JSON number.
    pick, quote = _picker(fields), json.encoder.encode_basestring_ascii
    text = [j for j, (_, prop) in enumerate(fields) if prop in ("machine_id", "program_id")]
    template = " {\n%s\n }" % ",\n".join("  %s: %%s" % quote(field) for field, _ in fields)

    def line(row):
        cells = list(pick(row))
        for j in text:
            cells[j] = quote(cells[j])
        return template % tuple(cells)

    return "[\n", ",\n", "\n]\n", line


def _xml_layout(fields):
    pick = _picker(fields)
    template = "  <record>%s</record>" % "".join("<%s>%%s</%s>" % (f, f) for f, _ in fields)
    return "<records>\n", "\n", "\n</records>\n", lambda row: template % pick(row)


_LAYOUTS = {"csv": _csv_layout, "json": _json_layout, "xml": _xml_layout}

# Records drawn and written at a time: generate_workload holds one block of
# rows and one block of each source's text, whatever the record count.
BLOCK_ROWS = 1024


def generate_workload(spec, out_dir):
    """Write the three heterogeneous source files; returns descriptors.

    The records are drawn once, BLOCK_ROWS at a time, and each block is
    appended to all three files before the next is drawn.
    """
    os.makedirs(out_dir, exist_ok=True)
    descriptors, layouts = [], []
    for fmt, field_of, absent in _SCHEMES:
        fields = _source_fields(field_of, absent)
        location = os.path.join(out_dir, "source_%s.%s" % (fmt, fmt))
        layouts.append(_LAYOUTS[fmt](fields))
        descriptors.append(
            SourceDescriptor(
                format=fmt,
                location=location,
                field_mapping=tuple(fields),
                absent=absent,
                record_bytes=spec.record_bytes,
            )
        )
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(desc.location, "w")) for desc in descriptors]
        rows = _cell_rows(spec)
        # a spec gives at least one record, so the first block writes each head
        blocks = iter(lambda: list(itertools.islice(rows, BLOCK_ROWS)), [])
        for n, block in enumerate(blocks):
            for fh, (head, joiner, _, line) in zip(files, layouts):
                fh.write((joiner if n else head) + joiner.join(map(line, block)))
        for fh, (_, _, tail, _) in zip(files, layouts):
            fh.write(tail)
    return descriptors
