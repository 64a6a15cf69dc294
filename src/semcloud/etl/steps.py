"""Slice, prepare, and store steps."""

import dataclasses
import os

from ..rng import LegacyRandom
from .errors import CapacityExceeded, MissingReference
from .records import write_unified

REFERENCE_CURVE_LEN = 8


@dataclasses.dataclass(frozen=True)
class Slice:
    machine_id: str
    records: tuple
    seq: int

    def __post_init__(self):
        for rec in self.records:
            if rec.machine_id != self.machine_id:
                raise ValueError(
                    "slice %d mixes %s with %s"
                    % (self.seq, self.machine_id, rec.machine_id)
                )


def slice_records(records, nc, ns):
    """Partition records into per-machine slices of at most ns records.

    Records are consumed nc at a time in input order; within a chunk the
    records of each machine are split into runs of ns.  Yields Slices;
    the multiset of sliced records equals the input.
    """
    if not 1 <= ns <= nc:
        raise ValueError("need 1 <= ns <= nc, got nc=%s ns=%s" % (nc, ns))
    records = list(records)
    seq = 0
    for start in range(0, len(records), nc):
        chunk = records[start : start + nc]
        by_machine = {}
        for rec in chunk:
            by_machine.setdefault(rec.machine_id, []).append(rec)
        for machine in sorted(by_machine):
            group = by_machine[machine]
            for s in range(0, len(group), ns):
                yield Slice(machine, tuple(group[s : s + ns]), seq)
                seq += 1


class ReferenceStore:
    """Keyed snapshot of the infrequent pipeline's intermediate results.

    Rows are keyed by (machine_id, program_id) and hold per-machine
    metadata plus one reference-curve vector.
    """

    def __init__(self, entries=None):
        self._snapshot = dict(entries or {})

    def lookup(self, machine_id, program_id):
        snapshot = self._snapshot
        key = (machine_id, program_id)
        if key not in snapshot:
            if not any(m == machine_id for m, _ in snapshot):
                raise MissingReference(machine_id)
            raise MissingReference(machine_id, program_id)
        return snapshot[key]


def reference_entries(machines, programs, seed=0):
    """Deterministic reference fixture for the given machine/program ids,
    drawn as ``np.random.RandomState(seed).rand()`` draws; the seed must be
    an integer."""
    draw = LegacyRandom(seed).random
    entries = {}
    for machine in machines:
        for program in programs:
            curve = tuple(round(50.0 + 10.0 * draw(), 6) for _ in range(REFERENCE_CURVE_LEN))
            entries[(machine, program)] = {
                "metadata": "ref:%s:%s" % (machine, program),
                "curve": curve,
            }
    return entries


@dataclasses.dataclass(frozen=True)
class PreparedRecord:
    record: object  # UnifiedRecord
    reference_meta: str
    curve_deviation: float
    prepared_bytes: int


@dataclasses.dataclass(frozen=True)
class PreparedSlice:
    machine_id: str
    seq: int
    records: tuple  # PreparedRecords

    def total_bytes(self):
        return sum(rec.prepared_bytes for rec in self.records)


def prepare_slice(slice_, reference_store):
    """Enrich every record with its machine/program reference row."""
    prepared = []
    for rec in slice_.records:
        row = reference_store.lookup(rec.machine_id, rec.program_id)
        curve = row["curve"]
        resistance = rec.attribute("resistance_mean")
        if resistance is None:
            resistance = 0.0
        deviation = round(resistance - sum(curve) / len(curve), 6)
        prepared.append(
            PreparedRecord(
                record=rec,
                reference_meta=row["metadata"],
                curve_deviation=deviation,
                prepared_bytes=rec.record_bytes + 8 * len(curve),
            )
        )
    return PreparedSlice(slice_.machine_id, slice_.seq, tuple(prepared))


@dataclasses.dataclass(frozen=True)
class StoreReceipt:
    mode: str
    location: str
    bytes_written: int
    record_count: int


class PreparedStore:
    """Sink for prepared slices with a byte capacity (fast) or none (cloud)."""

    def __init__(self, mode, directory, capacity_bytes=None):
        self.mode = mode
        self.directory = directory
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        os.makedirs(directory, exist_ok=True)

    def free_bytes(self):
        if self.capacity_bytes is None:
            return float("inf")
        return self.capacity_bytes - self.used_bytes


def store_prepared(prepared, store):
    """Persist a prepared slice; returns a StoreReceipt.

    Raises CapacityExceeded when a fast store cannot hold the slice; the
    caller may retry against a cloud-mode store.
    """
    needed = prepared.total_bytes()
    if store.capacity_bytes is not None and needed > store.free_bytes():
        raise CapacityExceeded(needed, int(store.free_bytes()))
    location = os.path.join(
        store.directory, "%s_slice%05d.tsv" % (prepared.machine_id, prepared.seq)
    )
    write_unified(location, [rec.record for rec in prepared.records])
    extra = [
        "\t".join([rec.reference_meta, repr(rec.curve_deviation)])
        for rec in prepared.records
    ]
    with open(location + ".ref", "w") as fh:
        fh.write("\n".join(extra) + ("\n" if extra else ""))
    store.used_bytes += needed
    return StoreReceipt(store.mode, location, needed, len(prepared.records))
