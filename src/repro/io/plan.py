"""Extent and read-plan model for the unified data plane.

:class:`Extent` is the canonical placement unit: a contiguous run of one
file's bytes on one device object (an OST object for the PFS, a block
replica for HDFS). It lives here so every backend and the planner speak
the same structure; :mod:`repro.pfs.layout` re-exports it for the legacy
import path.

:class:`ReadPlan` is what the :class:`~repro.io.planner.ReadPlanner`
produces from a logical byte-range request: the ordered request pieces a
backend will actually issue, after granularity chopping.

:func:`element_bytes` / :func:`block_raw_bytes` are the single
byte-counting helpers shared by the PFS Reader, the Data Mapper, and
planner accounting, so datapath counters cannot drift between backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

__all__ = [
    "Extent",
    "ReadPlan",
    "ScanPlan",
    "WritePlan",
    "block_raw_bytes",
    "element_bytes",
]


@dataclass(frozen=True)
class Extent:
    """A contiguous run of bytes of one file on one device object.

    ``ost_index`` names the device slot within the file's device list —
    an OST for striped PFS files; HDFS adapters use the block's ordinal.
    """

    ost_index: int      # index into the file's device (OST) list
    object_offset: int  # offset within the per-device object
    file_offset: int    # offset within the logical file
    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("extent length must be > 0")


@dataclass(frozen=True)
class ReadPlan:
    """The request pieces one logical read decomposes into.

    ``pieces`` are ``(offset, length)`` pairs in file order, already
    chopped to the planner's granularity. ``granularity`` records the
    chop size used (None = whole-range single requests).
    """

    pieces: tuple[tuple[int, int], ...]
    granularity: Optional[int] = None


@dataclass(frozen=True)
class ScanPlan:
    """A pruned table/variable scan: what will be read, and what the
    planner proved it may skip.

    ``pieces`` are the surviving ``(offset, length)`` ranges (the
    :class:`ReadPlan` shape); ``skipped`` carries the ranges projection
    or zone-map pruning excluded, so byte-reduction accounting
    (``ReadPlanner.account_skipped``) reports exactly what the eager
    path would have moved.
    """

    pieces: tuple[tuple[int, int], ...]
    skipped: tuple[tuple[int, int], ...] = ()
    granularity: Optional[int] = None

    @property
    def n_requests(self) -> int:
        return len(self.pieces)

    @property
    def total_bytes(self) -> int:
        return sum(n for _pos, n in self.pieces)

    @property
    def skipped_bytes(self) -> int:
        return sum(n for _pos, n in self.skipped)

    def __iter__(self):
        return iter(self.pieces)

    def __len__(self) -> int:
        return len(self.pieces)


@dataclass(frozen=True)
class WritePlan:
    """The push requests one logical write decomposes into.

    The write-side counterpart of :class:`ReadPlan`: ``extents`` are the
    per-device runs a backend will actually push, in payload order,
    after payload-contiguous coalescing and chunk chopping. ``chunk``
    records the chop size used (None = whole-extent single pushes).
    """

    extents: tuple[Extent, ...]
    chunk: Optional[int] = None

    @property
    def n_requests(self) -> int:
        return len(self.extents)

    def __iter__(self):
        return iter(self.extents)


def element_bytes(dtype: Any, count: Sequence[int], *,
                  scalar_when_empty: bool = False) -> int:
    """Raw payload bytes of ``count``-shaped elements of ``dtype``.

    The one place raw-byte math lives: an empty ``count`` selects
    nothing (0 bytes) unless ``scalar_when_empty`` — the Data Mapper's
    convention for scalar sub-slabs.
    """
    import numpy as np

    itemsize = np.dtype(dtype).itemsize
    if not count:
        return itemsize if scalar_when_empty else 0
    return itemsize * math.prod(count)


def block_raw_bytes(block) -> int:
    """Uncompressed payload size of a dummy block (flat or hyperslab).

    A zero-dimensional hyperslab (empty ``count``) selects nothing and
    reports 0 bytes.
    """
    if block.hyperslab is None:
        return block.length
    return element_bytes(block.hyperslab["dtype"], block.hyperslab["count"])
