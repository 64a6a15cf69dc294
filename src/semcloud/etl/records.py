"""Unified record model and the canonical delimited serialization."""

import dataclasses

from .errors import UnreadableSource

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


@dataclasses.dataclass(frozen=True, slots=True)
class UnifiedRecord:
    machine_id: str
    program_id: str
    timestamp: float
    values: tuple  # one value-or-None per name, in UNIFIED_ATTRIBUTES order
    record_bytes: int

    @property
    def attributes(self):
        """((name, value-or-None), ...) in UNIFIED_ATTRIBUTES order."""
        return tuple(zip(UNIFIED_ATTRIBUTES, self.values))

    def attribute(self, name):
        return self.values[_POSITION[name]]

    def identity(self):
        """Hashable identity for multiset comparisons."""
        return (self.machine_id, self.program_id, self.timestamp, self.values)


def make_record(machine_id, program_id, timestamp, values, record_bytes):
    """Build a UnifiedRecord from a name->value dict; missing names are null."""
    return UnifiedRecord(
        machine_id=str(machine_id),
        program_id=str(program_id),
        timestamp=float(timestamp),
        values=tuple(map(values.get, UNIFIED_ATTRIBUTES)),
        record_bytes=int(record_bytes),
    )


def record_cells(record):
    """The canonical cell strings of a record, in UNIFIED_HEADER order
    without record_bytes: the key fields, then each attribute's repr, or
    NULL_TOKEN for a null."""
    cells = [record.machine_id, record.program_id, repr(record.timestamp)]
    cells += [NULL_TOKEN if value is None else repr(value) for value in record.values]
    return cells


def write_unified(path, records):
    """Write unified records as a tab-delimited file with canonical header."""
    lines = ["\t".join(UNIFIED_HEADER)]
    for rec in records:
        lines.append("\t".join(record_cells(rec) + [str(rec.record_bytes)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_unified(path):
    """The records of a file ``write_unified`` wrote.  A bad header or row
    raises UnreadableSource naming the path and the line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or tuple(lines[0].split("\t")) != UNIFIED_HEADER:
        raise UnreadableSource("%s: line 1: not a unified record header" % path)
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(UNIFIED_HEADER):
            raise UnreadableSource("%s: line %d: expected %d cells, got %d"
                                   % (path, lineno, len(UNIFIED_HEADER), len(cells)))
        try:
            values = tuple(None if cell == NULL_TOKEN else float(cell) for cell in cells[3:-1])
            records.append(
                UnifiedRecord(cells[0], cells[1], float(cells[2]), values, int(cells[-1]))
            )
        except ValueError as exc:
            raise UnreadableSource("%s: line %d: %s" % (path, lineno, exc)) from exc
    return records
