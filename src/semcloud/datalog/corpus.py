"""The shipped rule corpus: graph extraction, resource estimation, and the
four-branch resource configuration program.

Branch guards compare the estimated memory peak against c1*nm and the
estimated storage peak against c2*nst; the four (<=,>) combinations partition
the plane, so exactly one branch can fire for a pipeline:

    memory <= c1*nm, storage <= c2*nst  ->  no slicing, fast storage
    memory  > c1*nm, storage <= c2*nst  ->  slicing,    fast storage
    memory <= c1*nm, storage  > c2*nst  ->  no slicing, cloud storage
    memory  > c1*nm, storage  > c2*nst  ->  slicing,    cloud storage

In the no-slicing branches the whole input is handled as one chunk/slice
(nc = ns = n).  Memory reservations always take the #min{estimate, ...} form
so that mrs <= ms and mrp <= mp hold on every derived configuration.
"""

import functools

from .parser import parse_program

# (name, arity) of every external the corpus calls.  The estimation functions
# depend only on data size; the configuration functions also see the measured
# pilot step times or the chosen chunk/slice sizes.
ESTIMATION_EXTERNALS = (
    ("func_ms", 2),   # (n, v)            -> slice memory, MB
    ("func_mp", 4),   # (n, v, ms, i)     -> prepare memory at slice index i, MB
    ("func_ssl", 2),  # (n, v)            -> slice storage, MB
    ("func_spr", 4),  # (n, v, ssl, i)    -> prepare storage at slice index i, MB
    ("func_sst", 4),  # (n, v, ssl, spr)  -> store storage, MB
)

CONFIGURATION_EXTERNALS = (
    ("func_fs_1", 4),  # (n, v, ts, tp) -> chunk size, fast-storage branch
    ("func_fs_2", 4),  # (n, v, ts, tp) -> slice size, fast-storage branch
    ("func_cs_1", 4),  # (n, v, ts, tp) -> chunk size, cloud-storage branch
    ("func_cs_2", 4),  # (n, v, ts, tp) -> slice size, cloud-storage branch
    ("func_ss", 4),    # (n, v, nc, ns) -> slice memory under the configuration
    ("func_pn", 4),    # (n, v, nc, ns) -> prepare memory under the configuration
)

ALL_EXTERNALS = ESTIMATION_EXTERNALS + CONFIGURATION_EXTERNALS

RULES_TEXT = """
% ---- graph extraction ------------------------------------------------------

subgraph1(p,n,v,ms,mp,ssl,spr,sst) <- ETLPipeline(p),
    hasInputData(p,d), hasVolume(d,v), hasNoRecords(d,n),
    hasEstSliceMemory(p,ms), hasEstPrepareMemory(p,mp),
    hasEstSliceStorage(p,ssl), hasEstPrepareStorage(p,spr),
    hasEstStoreStorage(p,sst).

subgraph2(p,n,v,ms,mp,ts,tp,nc,ns,mrs,mrp,mode) <- ETLPipeline(p),
    hasInputData(p,d), hasVolume(d,v), hasNoRecords(d,n),
    hasEstSliceMemory(p,ms), hasEstPrepareMemory(p,mp),
    hasStartTask(p,t0), hasNextTask(t0,t1), hasNextTask(t1,t2),
    hasNextTask(t2,t3),
    Retrieve(t0), Slice(t1), Prepare(t2), Store(t3),
    hasChunkSize(t1,nc), hasSliceSize(t1,ns),
    hasRequiredTime(t1,ts), hasRequiredTime(t2,tp),
    hasMemoryReservation(t1,mrs), hasMemoryReservation(t2,mrp),
    hasStorageMode(t3,mode).

CloudAttributes(c,c1,c2,c3,nm,nst,fs,cs) <- Cloud(c),
    hasMemoryBufferCoefficient(c,c1), hasStorageBufferCoefficient(c,c2),
    hasMaxMemoryCoefficient(c,c3), hasNodeMemory(c,nm), hasNodeStorage(c,nst),
    hasFastStorage(c,fs), hasCloudStorage(c,cs).

% ---- resource estimation ---------------------------------------------------
% The est* slots of subgraph1 carry pilot pre-estimates; the bindings below
% overwrite them with the learned-model values.

estimated_resource(p,ms,mp,ssl,spr,sst) <-
    subgraph1(p,n,v,ms,mp,ssl,spr,sst),
    ms = @func_ms(n,v), mp = #avg{@func_mp(n,v,ms,i) : range(i)},
    ssl = @func_ssl(n,v), spr = #avg{@func_spr(n,v,ssl,i) : range(i)},
    sst = @func_sst(n,v,ssl,spr).

% ---- resource configuration ------------------------------------------------

% no slicing, fast storage
configured_resource(p,nc,ns,fs,mrs,mrp) <-
    subgraph2(p,n,v,_,_,ts,tp,_,_,_,_,mode),
    estimated_resource(p,ms,mp,ssl,spr,sst),
    CloudAttributes(c,c1,c2,c3,nm,nst,fs,cs),
    #max{ms,mp} <= (c1 * nm), #max{ssl,spr,sst} <= (c2 * nst),
    nc = n, ns = n,
    mrs = #min{ms, #max{@func_ss(n,v,nc,ns), c3*ms}},
    mrp = #min{mp, #max{@func_pn(n,v,nc,ns), c3*mp}}.

% slicing, fast storage
configured_resource(p,nc,ns,fs,mrs,mrp) <-
    subgraph2(p,n,v,_,_,ts,tp,_,_,_,_,mode),
    estimated_resource(p,ms,mp,ssl,spr,sst),
    CloudAttributes(c,c1,c2,c3,nm,nst,fs,cs),
    #max{ms,mp} > (c1 * nm), #max{ssl,spr,sst} <= (c2 * nst),
    nc = @func_fs_1(n,v,ts,tp), ns = @func_fs_2(n,v,ts,tp),
    mrs = #min{ms, #max{@func_ss(n,v,nc,ns), c3*ms}},
    mrp = #min{mp, #max{@func_pn(n,v,nc,ns), c3*mp}}.

% no slicing, cloud storage
configured_resource(p,nc,ns,cs,mrs,mrp) <-
    subgraph2(p,n,v,_,_,ts,tp,_,_,_,_,mode),
    estimated_resource(p,ms,mp,ssl,spr,sst),
    CloudAttributes(c,c1,c2,c3,nm,nst,fs,cs),
    #max{ms,mp} <= (c1 * nm), #max{ssl,spr,sst} > (c2 * nst),
    nc = n, ns = n,
    mrs = #min{ms, #max{@func_ss(n,v,nc,ns), c3*ms}},
    mrp = #min{mp, #max{@func_pn(n,v,nc,ns), c3*mp}}.

% slicing, cloud storage
configured_resource(p,nc,ns,cs,mrs,mrp) <-
    subgraph2(p,n,v,_,_,ts,tp,_,_,_,_,mode),
    estimated_resource(p,ms,mp,ssl,spr,sst),
    CloudAttributes(c,c1,c2,c3,nm,nst,fs,cs),
    #max{ms,mp} > (c1 * nm), #max{ssl,spr,sst} > (c2 * nst),
    nc = @func_cs_1(n,v,ts,tp), ns = @func_cs_2(n,v,ts,tp),
    mrs = #min{ms, #max{@func_ss(n,v,nc,ns), c3*ms}},
    mrp = #min{mp, #max{@func_pn(n,v,nc,ns), c3*mp}}.
"""


@functools.lru_cache(maxsize=None)
def configuration_program():
    """The full shipped program, parsed once per process.

    A ``Program`` is a frozen dataclass of tuples, so every caller can
    share the one parse.
    """
    return parse_program(RULES_TEXT)


# Default cloud-system coefficients (memory buffer, storage buffer, max-memory).
DEFAULT_C1 = 0.667
DEFAULT_C2 = 0.667
DEFAULT_C3 = 1.5

# Averaging granularity of the per-slice-index estimates: range(1..RANGE_SIZE)
# is emitted into every EDB.
RANGE_SIZE = 10
