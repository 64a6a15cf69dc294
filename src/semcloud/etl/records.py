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

