"""Synthetic workload generator.

Emits the same underlying welding records as three heterogeneous
sources (CSV, JSON, XML) that disagree in field naming and attribute
availability.  Output is byte-deterministic for a given seed.
"""

import dataclasses
import json
import math
import operator
import os

import numpy as np

from .records import KEY_FIELDS, UNIFIED_ATTRIBUTES, UNIFIED_HEADER, make_record, record_cells
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


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    production_lines: int = 3
    machines: int = 45
    duration: float = 86.4  # s, 1/1000 of one day
    rate: float = 1.0  # records per second per machine
    record_bytes: int = 1250  # 1/100 of the measured 125 KB per operation
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.production_lines <= self.machines:
            raise ValueError("need machines >= production_lines >= 1")
        for name in ("duration", "rate", "record_bytes"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be positive and finite, got %r"
                                 % (name, getattr(self, name)))
        if self.records_per_machine() < 1:
            raise ValueError("rate * duration must give each machine a record")

    def records_per_machine(self):
        return int(self.rate * self.duration)

    def total_records(self):
        return self.machines * self.records_per_machine()


def machine_ids(spec):
    return ["m%02d" % (i + 1) for i in range(spec.machines)]


def base_records(spec):
    """The underlying record stream all sources describe."""
    rng = np.random.RandomState(spec.seed)
    records = []
    per_machine = spec.records_per_machine()
    scale = 10.0 * np.arange(1, len(UNIFIED_ATTRIBUTES) + 1)
    for m_index, machine in enumerate(machine_ids(spec)):
        base = scale + 0.5 * m_index
        for k in range(per_machine):
            program = "p%d" % (rng.randint(PROGRAM_COUNT) + 1)
            timestamp = round(k / spec.rate, 6)
            # rand(n) draws what n rand() calls draw; Python's round, unlike
            # np.round, rounds each value to the bits the scalar formula gives.
            row = (base * (1.0 + 0.1 * rng.rand(len(scale)))).tolist()
            values = dict(zip(UNIFIED_ATTRIBUTES, [round(v, 6) for v in row]))
            records.append(
                make_record(machine, program, timestamp, values, spec.record_bytes)
            )
    return records


def _source_fields(field_of, absent):
    props = [p for p in KEY_FIELDS + UNIFIED_ATTRIBUTES if p not in absent]
    return [(field_of(prop), prop) for prop in props]


def _picker(fields):
    """A getter for the cells of a record_cells row that a source's fields carry."""
    return operator.itemgetter(*(UNIFIED_HEADER.index(prop) for _, prop in fields))


def _write_csv(path, fields, rows):
    pick = _picker(fields)
    lines = [",".join(field for field, _ in fields)]
    lines += [",".join(pick(row)) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def _write_json(path, fields, rows):
    # The exact text of json.dumps(entries, indent=1): the key strings are
    # quoted, and every other cell is a float repr, so already a JSON number.
    pick, quote = _picker(fields), json.encoder.encode_basestring_ascii
    text = [j for j, (_, prop) in enumerate(fields) if prop in ("machine_id", "program_id")]
    template = " {\n%s\n }" % ",\n".join("  %s: %%s" % quote(field) for field, _ in fields)
    entries = []
    for row in rows:
        cells = list(pick(row))
        for j in text:
            cells[j] = quote(cells[j])
        entries.append(template % tuple(cells))
    _write(path, "[\n%s\n]\n" % ",\n".join(entries))


def _write_xml(path, fields, rows):
    pick = _picker(fields)
    template = "  <record>%s</record>" % "".join("<%s>%%s</%s>" % (f, f) for f, _ in fields)
    lines = ["<records>"]
    lines += [template % pick(row) for row in rows]
    lines.append("</records>")
    _write(path, "\n".join(lines) + "\n")


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


_WRITERS = {"csv": _write_csv, "json": _write_json, "xml": _write_xml}


def generate_workload(spec, out_dir):
    """Write the three heterogeneous source files; returns descriptors."""
    os.makedirs(out_dir, exist_ok=True)
    rows = [record_cells(rec) for rec in base_records(spec)]
    descriptors = []
    for fmt, field_of, absent in _SCHEMES:
        fields = _source_fields(field_of, absent)
        location = os.path.join(out_dir, "source_%s.%s" % (fmt, fmt))
        _WRITERS[fmt](location, fields, rows)
        descriptors.append(
            SourceDescriptor(
                format=fmt,
                location=location,
                field_mapping=tuple(fields),
                absent=absent,
                record_bytes=spec.record_bytes,
            )
        )
    return descriptors
