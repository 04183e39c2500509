"""`repro.io` — the unified extent-based data plane.

One storage abstraction for every backend (PAPER.md §III: one framework
reads both HDFS blocks and PFS-resident scientific data):

- :mod:`repro.io.plan` — the :class:`Extent`/:class:`ReadPlan` model and
  the shared byte-counting helpers.
- :mod:`repro.io.protocol` — the :class:`StorageClient` /
  :class:`StorageFacade` protocols every backend client implements.
- :mod:`repro.io.registry` — the scheme registry (``hdfs://``,
  ``pfs://``, ``scidp://``): open any backend by path.
- :mod:`repro.io.planner` — the single :class:`ReadPlanner` owning
  granularity chopping, per-device extent coalescing, bounded fan-out,
  and read-ahead-cache join-in-flight for all backends.
- :mod:`repro.io.write` — the write-side counterpart: the
  :class:`WritePlanner` owning payload-contiguous coalescing, chunk
  chopping, bounded push fan-out and per-scheme ``io.write.*``
  accounting, plus the :class:`WriteBehindFlusher` async output commit.

Backend adapters (``repro.hdfs.client``, ``repro.pfs.client``,
``repro.hdfs.connector``, ``repro.core.reader``) keep their historical
import paths and delegate their data paths here. New backends implement
:class:`StorageClient` and register a scheme — one adapter file, not a
fourth fork of the read path (see DESIGN.md §9 for the layering rules
and the shim deprecation policy).
"""

from repro.io.plan import (
    Extent,
    ReadPlan,
    ScanPlan,
    WritePlan,
    block_raw_bytes,
    element_bytes,
)
from repro.io.planner import ReadPlanner, chop_range, coalesce_extents
from repro.io.protocol import READ_BLOCK_KWARGS, StorageClient, StorageFacade
from repro.io.write import (
    WriteBehindFlusher,
    WritePlanner,
    chop_extents,
    coalesce_payload_runs,
)
from repro.io.registry import (
    SchemeAlreadyRegisteredError,
    StorageRegistry,
    UnknownSchemeError,
    join_url,
    split_url,
)

__all__ = [
    "Extent",
    "READ_BLOCK_KWARGS",
    "ReadPlan",
    "ReadPlanner",
    "ScanPlan",
    "SchemeAlreadyRegisteredError",
    "StorageClient",
    "StorageFacade",
    "StorageRegistry",
    "UnknownSchemeError",
    "WriteBehindFlusher",
    "WritePlan",
    "WritePlanner",
    "block_raw_bytes",
    "chop_extents",
    "chop_range",
    "coalesce_extents",
    "coalesce_payload_runs",
    "element_bytes",
    "join_url",
    "split_url",
]
