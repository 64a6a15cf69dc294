"""Pilot-running statistics: the training rows for rule parameter learning.

A record captures one observed execution -- data size, configuration, and
measured resource/time.  Estimation-kind records come from canonical
single-node unsliced runs; configuration-kind records vary (nc, ns).

The records, their CSV form and the learning methods' grids live outside
``learning``, whose models load numpy: ``pilot`` writes records, and the
project check names the methods, without loading it.  ``learning``
re-exports every name here.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields

from .errors import LearningError
from .specs import STORAGE_MODES

RUN_KINDS = ("estimation", "configuration")

# The hyper-parameter grid each learning method searches; its keys are the
# method names a project's learn section may give.
DEFAULT_GRIDS = {
    "polyr": [{"degree": d} for d in range(1, 7)],
    "mlp": [
        {"hidden_widths": (10, 9), "epochs": 300, "step_size": 0.01},
        {"hidden_widths": (16,), "epochs": 300, "step_size": 0.01},
    ],
    "knn": [{"k": k} for k in (1, 2, 3, 5)],
}


@dataclass(frozen=True)
class PilotRunRecord:
    pipeline: str
    no_records: float  # n
    volume: float  # v, MB
    chunk_size: float  # nc
    slice_size: float  # ns
    slice_time: float  # ts, s
    prepare_time: float  # tp, s
    slice_memory: float  # ms, MB
    prepare_memory: float  # mp, MB
    slice_storage: float  # ssl, MB
    prepare_storage: float  # spr, MB
    store_storage: float  # sst, MB
    slice_memory_reservation: float  # mrs, MB
    prepare_memory_reservation: float  # mrp, MB
    storage_mode: str  # fast | cloud
    total_time: float  # s
    cpu_integral: float  # millicore*s
    kind: str  # estimation | configuration

    def violations(self) -> list:
        problems = []
        for f in fields(self):
            if f.type == "float" and getattr(self, f.name) < 0:
                problems.append(f"{f.name} is negative")
        if self.kind not in RUN_KINDS:
            problems.append(f"unknown run kind {self.kind!r}")
        if self.storage_mode not in STORAGE_MODES:
            problems.append(f"unknown storage mode {self.storage_mode!r}")
        if self.kind == "configuration":
            if not self.slice_size <= self.chunk_size <= self.no_records:
                problems.append(
                    f"expected ns <= nc <= n, got {self.slice_size} / "
                    f"{self.chunk_size} / {self.no_records}"
                )
        if self.total_time < max(self.slice_time, self.prepare_time):
            problems.append("total_time below a step time")
        return problems


FIELD_NAMES = [f.name for f in fields(PilotRunRecord)]

_STR_FIELDS = ("pipeline", "storage_mode", "kind")


def write_pilot_csv(records, path) -> None:
    """Delimited rows with a named header; records are validated on write."""
    bad = [(i, p) for i, r in enumerate(records) for p in r.violations()]
    if bad:
        raise ValueError(f"invalid pilot records: {bad[:5]}")
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(FIELD_NAMES)
        for r in records:
            writer.writerow(
                [getattr(r, name) if name in _STR_FIELDS else repr(float(getattr(r, name)))
                 for name in FIELD_NAMES]
            )


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def read_pilot_csv(text, source) -> list:
    """Pilot records from the CSV ``text`` of the file ``source``;
    LearningError, naming ``source`` and the line, if the CSV is malformed,
    if a numeric cell is not a finite number, or if a record fails the
    checks write_pilot_csv makes."""
    reader = csv.DictReader(io.StringIO(text))
    try:
        missing = set(FIELD_NAMES) - set(reader.fieldnames or ())
        if missing:
            raise LearningError(f"pilot stats {source} line 1: missing columns {sorted(missing)}")
        out = []
        for row in reader:
            try:
                record = PilotRunRecord(**{
                    name: row[name] if name in _STR_FIELDS else _finite(row[name])
                    for name in FIELD_NAMES
                })
            except (TypeError, ValueError) as exc:
                problems = [str(exc)]
            else:
                problems = record.violations()
            if problems:
                raise LearningError(f"pilot stats {source} line {reader.line_num}: "
                                    + "; ".join(problems))
            out.append(record)
        return out
    except csv.Error as exc:
        # such as a cell longer than csv.field_size_limit(); the line is the
        # csv reader's, as the DictReader counts only the rows it returned
        raise LearningError(f"pilot stats {source} line {reader.reader.line_num}: {exc}") from None
