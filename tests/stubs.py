"""Shared test helpers: stub externals and randomized rule-corpus EDBs."""

from __future__ import annotations

import numpy as np

from semcloud.datalog import ExternalRegistry
from semcloud.datalog.corpus import configuration_program


def make_stub_funcs(rng=None):
    """Deterministic numeric stubs for every corpus external.

    With an rng the coefficients are randomized, so repeated draws exercise
    different guard branches and aggregate values.  Returns a plain
    name -> callable dict (the shape the oracle grounder wants).
    """
    if rng is None:
        rng = np.random.RandomState(0)
    c = rng.uniform(0.2, 2.0, size=12)

    def fraction(n, ts, tp):
        # always a valid size: 1 <= value <= n
        return max(1.0, round(n / (1.0 + c[8] + 0.1 * (ts + tp))))

    return {
        "func_ms": lambda n, v: c[0] * v + c[1],
        "func_mp": lambda n, v, ms, i: c[2] * ms + c[3] * i,
        "func_ssl": lambda n, v: c[4] * v + 1.0,
        "func_spr": lambda n, v, ssl, i: ssl * (1.0 + c[5] * i / 10.0),
        "func_sst": lambda n, v, ssl, spr: c[6] * (ssl + spr),
        "func_fs_1": lambda n, v, ts, tp: fraction(n, ts, tp),
        "func_fs_2": lambda n, v, ts, tp: fraction(n, ts, 2.0 * tp),
        "func_cs_1": lambda n, v, ts, tp: fraction(n, 2.0 * ts, tp),
        "func_cs_2": lambda n, v, ts, tp: fraction(n, 2.0 * ts, 2.0 * tp),
        "func_ss": lambda n, v, nc, ns: c[9] * v * ns / max(n, 1.0),
        "func_pn": lambda n, v, nc, ns: c[10] * v * ns / max(n, 1.0) + c[11],
    }


def row_function(func):
    """A scalar ``func(*args)`` as an engine row function: one value per row."""
    return lambda rows: [func(*row) for row in rows]


def make_registry(funcs=None):
    funcs = funcs or make_stub_funcs()
    registry = ExternalRegistry()
    for name, arity in configuration_program().calls:
        registry.register(name, row_function(funcs[name]), arity)
    return registry


def pipeline_edb(rng, range_size=3, drop_probability=0.0):
    """A randomized ground instance of the corpus EDB as (pred, args) pairs.

    Numeric attributes are drawn from wide ranges so the four configuration
    guards all occur across draws; with drop_probability some non-structural
    facts are removed to exercise partial derivations.
    """
    n = float(rng.randint(50, 5000))
    v = float(rng.uniform(1.0, 200.0))
    facts = [
        ("ETLPipeline", ("p1",)),
        ("hasInputData", ("p1", "d1")),
        ("hasVolume", ("d1", v)),
        ("hasNoRecords", ("d1", n)),
        ("hasEstSliceMemory", ("p1", float(rng.uniform(1, 50)))),
        ("hasEstPrepareMemory", ("p1", float(rng.uniform(1, 50)))),
        ("hasEstSliceStorage", ("p1", float(rng.uniform(1, 50)))),
        ("hasEstPrepareStorage", ("p1", float(rng.uniform(1, 50)))),
        ("hasEstStoreStorage", ("p1", float(rng.uniform(1, 50)))),
        ("hasStartTask", ("p1", "t0")),
        ("hasNextTask", ("t0", "t1")),
        ("hasNextTask", ("t1", "t2")),
        ("hasNextTask", ("t2", "t3")),
        ("Retrieve", ("t0",)),
        ("Slice", ("t1",)),
        ("Prepare", ("t2",)),
        ("Store", ("t3",)),
        ("hasChunkSize", ("t1", n)),
        ("hasSliceSize", ("t1", n)),
        ("hasRequiredTime", ("t1", float(rng.uniform(0.1, 5.0)))),
        ("hasRequiredTime", ("t2", float(rng.uniform(0.1, 5.0)))),
        ("hasMemoryReservation", ("t1", float(rng.uniform(1, 50)))),
        ("hasMemoryReservation", ("t2", float(rng.uniform(1, 50)))),
        ("hasStorageMode", ("t3", "fast_storage")),
        ("Cloud", ("c1",)),
        ("hasMemoryBufferCoefficient", ("c1", 0.667)),
        ("hasStorageBufferCoefficient", ("c1", 0.667)),
        ("hasMaxMemoryCoefficient", ("c1", 1.5)),
        # small nm/nst values land draws on both sides of each guard
        ("hasNodeMemory", ("c1", float(rng.uniform(5, 400)))),
        ("hasNodeStorage", ("c1", float(rng.uniform(5, 400)))),
        ("hasFastStorage", ("c1", "fast_storage")),
        ("hasCloudStorage", ("c1", "cloud_storage")),
    ]
    facts.extend(("range", (float(i),)) for i in range(1, range_size + 1))
    if drop_probability > 0.0:
        structural = {"ETLPipeline", "Cloud", "range"}
        facts = [f for f in facts
                 if f[0] in structural or rng.rand() >= drop_probability]
    return facts
