"""``etl``: the 45-machine, 3-line desk factory at 432 s (19,440 records per source).

The only workload where ``etl`` does the work.  It puts write-heavy
generation (phase 1) beside read-heavy ingest followed by slice, prepare
and store (phase 2), so a change to the shared ``UnifiedRecord`` that
helps one side but costs the other shows up.
"""

import os
import shutil
import statistics
import time

import semcloud.etl as etl
from common import Workload, check, cold_import
from semcloud.config import derive_seed
from semcloud.etl.workload import PROGRAM_COUNT

# Chunks of five machines' records, split into runs of at most 240.
NC, NS = 2160, 240
FAST_STORE_BYTES = 4096 * 2**20


class Etl(Workload):
    attempted_base = "records generated"

    def __init__(self, ctx):
        super().__init__(ctx)
        seed = derive_seed(ctx.seed, "bench/etl")
        if ctx.smoke:
            self.spec = etl.WorkloadSpec(machines=4, production_lines=2, duration=43.2, seed=seed)
        else:
            self.spec = etl.WorkloadSpec(machines=45, production_lines=3, duration=432.0, seed=seed)

    def _pipeline(self, spec, directory, references):
        """generate -> ingest + map (x3) -> slice -> prepare -> store."""
        started = time.perf_counter()
        descriptors = etl.generate_workload(spec, os.path.join(directory, "sources"))
        generated = time.perf_counter()
        unified, rejects = {}, 0
        for desc in descriptors:
            raws, rejected = etl.ingest(desc)
            rejects += len(rejected)
            unified[desc.format] = etl.map_to_unified(raws, desc)
        slices = list(etl.slice_records(unified["csv"], NC, NS))
        prepared = [etl.prepare_slice(s, references) for s in slices]
        store = etl.PreparedStore("fast", os.path.join(directory, "store"), FAST_STORE_BYTES)
        receipts = [etl.store_prepared(p, store) for p in prepared]
        finished = time.perf_counter()
        return started, generated, finished, unified, slices, receipts, rejects

    def _references(self, spec):
        programs = ["p%d" % (i + 1) for i in range(PROGRAM_COUNT)]
        entries = etl.reference_entries(etl.machine_ids(spec), programs, seed=spec.seed)
        return etl.ReferenceStore(entries)

    def setup(self):
        import_s = cold_import(self.ctx)
        started = time.perf_counter()
        self.references = self._references(self.spec)
        # One pass over a two-machine factory fills the lazy caches
        # (parsers, regular expressions) before anything is timed.
        warm = etl.WorkloadSpec(machines=2, production_lines=1, duration=21.6, seed=self.spec.seed)
        directory = os.path.join(self.ctx.workdir, "warm")
        self._pipeline(warm, directory, self._references(warm))
        shutil.rmtree(directory)
        return import_s + self.ctx.sampler.ref_s(started, time.perf_counter())

    def batch(self, index, traced):
        directory = os.path.join(self.ctx.workdir, "b%d" % index)
        started, generated, finished, unified, slices, receipts, rejects = self._pipeline(
            self.spec, directory, self.references)
        shutil.rmtree(directory)

        total = self.spec.total_records()
        check(rejects == 0, "etl: %d records rejected" % rejects)
        keys = {fmt: sorted((r.machine_id, r.program_id, r.timestamp) for r in records)
                for fmt, records in unified.items()}
        check(keys["csv"] == keys["json"] == keys["xml"] and len(keys["csv"]) == total,
              "etl: the three sources disagree on (machine, program, timestamp) keys")
        mixed = [s.seq for s in slices if len({r.machine_id for r in s.records}) != 1]
        check(not mixed, "etl: slices mixing machines: %s" % mixed[:5])
        stored = sum(receipt.record_count for receipt in receipts)
        check(stored == total, "etl: stored %d records of %d generated" % (stored, total))
        ref_s = self.ctx.sampler.ref_s
        return {
            "batch_s": ref_s(started, finished),
            "batch_wall_s": finished - started,
            "phase1_s": ref_s(started, generated),
            "phase2_s": ref_s(generated, finished),
            "attempted": total,
            "failed": rejects + total - stored,
            "stored": stored,
        }

    def finish(self, batches):
        untraced = [b for b in batches if not b["traced"]]
        named = {
            "etl_records_per_s": (statistics.median([b["stored"] / b["batch_s"] for b in untraced]), "1/s"),
            "etl_generate_s": (statistics.median([b["phase1_s"] for b in untraced]), "s"),
            "etl_ingest_to_store_s": (statistics.median([b["phase2_s"] for b in untraced]), "s"),
        }
        return named, {}
