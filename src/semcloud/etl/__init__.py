from .errors import (
    BadCell,
    CapacityExceeded,
    EtlError,
    MappingGap,
    MissingReference,
    UnreadableSource,
)
from .records import (
    KEY_FIELDS,
    UNIFIED_ATTRIBUTES,
    UNIFIED_HEADER,
    UnifiedRecord,
    write_unified,
)
from .sources import Reject, SourceDescriptor, ingest, map_to_unified
from .steps import (
    PreparedRecord,
    PreparedSlice,
    PreparedStore,
    ReferenceStore,
    Slice,
    StoreReceipt,
    prepare_slice,
    reference_entries,
    slice_records,
    store_prepared,
)
from .workload import generate_workload, machine_ids
from ..specs import WorkloadSpec

__all__ = [
    "BadCell",
    "CapacityExceeded",
    "EtlError",
    "KEY_FIELDS",
    "MappingGap",
    "MissingReference",
    "PreparedRecord",
    "PreparedSlice",
    "PreparedStore",
    "ReferenceStore",
    "Reject",
    "Slice",
    "SourceDescriptor",
    "StoreReceipt",
    "UNIFIED_ATTRIBUTES",
    "UNIFIED_HEADER",
    "UnifiedRecord",
    "UnreadableSource",
    "WorkloadSpec",
    "generate_workload",
    "ingest",
    "machine_ids",
    "map_to_unified",
    "prepare_slice",
    "reference_entries",
    "slice_records",
    "store_prepared",
    "write_unified",
]
