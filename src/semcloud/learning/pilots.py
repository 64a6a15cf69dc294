"""Pilot-running statistics: the training rows for rule parameter learning.

A record captures one observed execution -- data size, configuration, and
measured resource/time.  Estimation-kind records come from canonical
single-node unsliced runs; configuration-kind records vary (nc, ns).
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, fields

from .errors import LearningError

RUN_KINDS = ("estimation", "configuration")


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
        from ..kg.model import STORAGE_MODES

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


def write_pilot_csv(records, stream_or_path) -> None:
    """Delimited rows with a named header; records are validated on write."""
    bad = [(i, p) for i, r in enumerate(records) for p in r.violations()]
    if bad:
        raise ValueError(f"invalid pilot records: {bad[:5]}")

    def _write(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(FIELD_NAMES)
        for r in records:
            row = asdict(r)
            writer.writerow(
                [row[name] if name in _STR_FIELDS else repr(float(row[name]))
                 for name in FIELD_NAMES]
            )

    if isinstance(stream_or_path, io.TextIOBase):
        _write(stream_or_path)
    else:
        with open(stream_or_path, "w", newline="") as stream:
            _write(stream)


def read_pilot_csv(stream_or_path) -> list:
    """Pilot records from a CSV stream or path; LearningError if unreadable."""
    def _read(stream):
        reader = csv.DictReader(stream)
        missing = set(FIELD_NAMES) - set(reader.fieldnames or ())
        if missing:
            raise LearningError(f"pilot stats file missing columns {sorted(missing)}")
        out = []
        for row in reader:
            try:
                values = {
                    name: row[name] if name in _STR_FIELDS else float(row[name])
                    for name in FIELD_NAMES
                }
            except (TypeError, ValueError) as exc:
                raise LearningError(f"pilot stats line {reader.line_num}: {exc}") from None
            out.append(PilotRunRecord(**values))
        return out

    if isinstance(stream_or_path, io.TextIOBase):
        return _read(stream_or_path)
    try:
        with open(stream_or_path, newline="") as stream:
            return _read(stream)
    except (OSError, UnicodeDecodeError) as exc:
        raise LearningError(
            f"cannot read pilot stats ({exc}); run `semcloud pilot` first") from None
