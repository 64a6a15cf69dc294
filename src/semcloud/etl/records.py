"""Unified record model and the canonical delimited serialization."""

import dataclasses

# Payload attribute names of the unified welding-record schema.  With
# machine_id, program_id, and timestamp this makes 26 attributes total;
# values are per-operation aggregates of the raw sensor channels.
UNIFIED_ATTRIBUTES = (
    "voltage_mean",
    "voltage_peak",
    "voltage_min",
    "current_mean",
    "current_peak",
    "current_min",
    "resistance_mean",
    "resistance_drop",
    "power_mean",
    "power_peak",
    "energy_total",
    "force_mean",
    "force_peak",
    "displacement_start",
    "displacement_end",
    "weld_time_ms",
    "upslope_time_ms",
    "downslope_time_ms",
    "pulse_count",
    "expulsion_flag",
    "cap_wear_index",
    "sheet_thickness",
    "quality_score",
)

KEY_FIELDS = ("machine_id", "program_id", "timestamp")

# Canonical column order for the unified delimited format.
UNIFIED_HEADER = KEY_FIELDS + UNIFIED_ATTRIBUTES + ("record_bytes",)

NULL_TOKEN = ""

_POSITION = {name: i for i, name in enumerate(UNIFIED_ATTRIBUTES)}


@dataclasses.dataclass(frozen=True)
class UnifiedRecord:
    machine_id: str
    program_id: str
    timestamp: float
    attributes: tuple  # ((name, value-or-None), ...) in UNIFIED_ATTRIBUTES order
    record_bytes: int

    def attribute(self, name):
        return self.attributes[_POSITION[name]][1]

    def identity(self):
        """Hashable identity for multiset comparisons."""
        return (self.machine_id, self.program_id, self.timestamp, self.attributes)


def make_record(machine_id, program_id, timestamp, values, record_bytes):
    """Build a UnifiedRecord from a name->value dict; missing names are null."""
    attrs = tuple(zip(UNIFIED_ATTRIBUTES, map(values.get, UNIFIED_ATTRIBUTES)))
    return UnifiedRecord(
        machine_id=str(machine_id),
        program_id=str(program_id),
        timestamp=float(timestamp),
        attributes=attrs,
        record_bytes=int(record_bytes),
    )


def record_cells(record):
    """The canonical cell strings of a record, in UNIFIED_HEADER order
    without record_bytes: the key fields, then each attribute's repr, or
    NULL_TOKEN for a null."""
    cells = [record.machine_id, record.program_id, repr(record.timestamp)]
    cells += [NULL_TOKEN if value is None else repr(value) for _, value in record.attributes]
    return cells


def write_unified(path, records):
    """Write unified records as a tab-delimited file with canonical header."""
    lines = ["\t".join(UNIFIED_HEADER)]
    for rec in records:
        lines.append("\t".join(record_cells(rec) + [str(rec.record_bytes)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_unified(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or tuple(lines[0].split("\t")) != UNIFIED_HEADER:
        raise ValueError("%s: not a unified record file" % path)
    records = []
    for line in lines[1:]:
        cells = line.split("\t")
        values = {}
        for name, cell in zip(UNIFIED_ATTRIBUTES, cells[3:-1]):
            values[name] = None if cell == NULL_TOKEN else float(cell)
        records.append(
            make_record(cells[0], cells[1], float(cells[2]), values, int(cells[-1]))
        )
    return records
