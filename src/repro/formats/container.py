"""Shared binary container for SCNC and SDF5.

Layout::

    magic (6 bytes)  | uint64 LE header length | header JSON (utf-8) | data

The header describes the group tree: dimensions, attributes and, for each
variable, its dtype, dims, shape, chunk shape, and a chunk index whose
offsets are **relative to the start of the data region** (so the header
length doesn't feed back into itself). Chunks are zlib-compressed,
concatenated in C order of the chunk grid, one file region per variable.

The reader takes any file-like object supporting ``seek``/``read`` — real
files in tests and examples, simulated PFS/HDFS file handles in the
experiments.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, BinaryIO, Optional

import numpy as np

from repro.formats.model import Dataset, Group, Variable

__all__ = [
    "ChunkRecord",
    "ContainerHeader",
    "ContainerReader",
    "FormatError",
    "VariableIndex",
    "chunk_stats",
    "read_header",
    "write_container",
]

MAGIC_LEN = 6
_LEN_STRUCT = struct.Struct("<Q")
DEFAULT_COMPRESSION_LEVEL = 4


class FormatError(Exception):
    """Malformed or foreign container data."""


@dataclass(frozen=True)
class ChunkRecord:
    """One stored chunk of one variable."""

    index: tuple[int, ...]   # chunk grid coordinate
    offset: int              # bytes from the start of the data region
    nbytes: int              # stored (compressed) size
    raw_nbytes: int          # uncompressed size
    #: optional zone map ``(min, max, count)`` over the chunk's non-NaN
    #: values; ``(None, None, 0)`` for an all-NaN chunk, ``None`` when the
    #: writer recorded no statistics (the default — the stats knob grows
    #: the header, so it is opt-in to keep legacy file bytes stable)
    stats: Optional[tuple[Optional[float], Optional[float], int]] = None


@dataclass
class VariableIndex:
    """Everything the reader needs to serve hyperslabs of one variable."""

    path: str                # e.g. "/grp/var"
    name: str
    dtype: np.dtype
    dims: tuple[str, ...]
    shape: tuple[int, ...]
    chunk_shape: tuple[int, ...]
    attrs: dict[str, Any]
    chunks: list[ChunkRecord]
    compressed: bool

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize \
            if self.shape else self.dtype.itemsize

    @property
    def stored_nbytes(self) -> int:
        return sum(c.nbytes for c in self.chunks)

    @property
    def has_stats(self) -> bool:
        """True when every chunk carries a zone map — the reader can
        range-prune this variable from the header alone."""
        return bool(self.chunks) and all(
            c.stats is not None for c in self.chunks)

    def chunk_slices(self, index: tuple[int, ...]) -> tuple[slice, ...]:
        return tuple(
            slice(i * c, min((i + 1) * c, s))
            for i, c, s in zip(index, self.chunk_shape, self.shape))


@dataclass
class ContainerHeader:
    """Parsed header: the group tree plus per-variable chunk indexes."""

    magic: bytes
    root: dict[str, Any]             # raw JSON group tree
    data_start: int                  # absolute offset of the data region
    variables: dict[str, VariableIndex]  # keyed by path

    def variable(self, path: str) -> VariableIndex:
        norm = "/" + path.strip("/")
        try:
            return self.variables[norm]
        except KeyError:
            raise FormatError(f"no variable {path!r} in container") from None

    def variable_paths(self) -> list[str]:
        return list(self.variables)


# --------------------------------------------------------------------------
# Writing
# --------------------------------------------------------------------------

def _group_to_json(group: Group,
                   chunk_offsets: dict[int, list[ChunkRecord]]) -> dict:
    return {
        "name": group.name,
        "attrs": group.attrs,
        "dims": group.dims,
        "variables": [
            {
                "name": var.name,
                "dtype": var.dtype.str,
                "dims": list(var.dims),
                "shape": list(var.shape),
                "chunk_shape": list(var.chunk_shape),
                "attrs": var.attrs,
                "chunks": [
                    [list(rec.index), rec.offset, rec.nbytes,
                     rec.raw_nbytes]
                    + ([list(rec.stats)] if rec.stats is not None else [])
                    for rec in chunk_offsets[id(var)]
                ],
            }
            for var in group.variables.values()
        ],
        "groups": [
            _group_to_json(sub, chunk_offsets)
            for sub in group.groups.values()
        ],
    }


def chunk_stats(chunk: np.ndarray
                ) -> Optional[tuple[Optional[float], Optional[float], int]]:
    """Zone-map statistics ``(min, max, count)`` for one chunk's values.

    ``count`` is the number of non-NaN elements; an all-NaN chunk yields
    ``(None, None, 0)``. Non-numeric (string/object/complex) chunks have
    no zone map and return ``None`` — predicates cannot range-prune them.
    """
    if chunk.dtype.kind not in "iufb":
        return None
    if chunk.dtype.kind == "f":
        valid = ~np.isnan(chunk)
        count = int(valid.sum())
        if count == 0:
            return (None, None, 0)
        values = chunk[valid]
        return (float(values.min()), float(values.max()), count)
    return (float(chunk.min()), float(chunk.max()), int(chunk.size))


def write_container(fileobj: BinaryIO, dataset: Dataset, magic: bytes,
                    compression_level: int = DEFAULT_COMPRESSION_LEVEL,
                    stats: bool = False) -> int:
    """Serialize ``dataset`` to ``fileobj``; returns total bytes written.

    ``compression_level`` 0 stores chunks raw (still chunked — this is the
    knob the NU-WRF generator uses to hit the paper's ~3.3× ratio exactly).

    ``stats=True`` records a per-chunk ``[min, max, count]`` zone map for
    numeric variables in the header's chunk index, letting readers prune
    chunks against range predicates without touching chunk payloads. Off
    by default: the extra header bytes shift ``data_start`` and every
    absolute chunk offset, which the perf-smoke golden timings pin.
    """
    if len(magic) != MAGIC_LEN:
        raise ValueError(f"magic must be {MAGIC_LEN} bytes")
    blobs: list[bytes] = []
    chunk_offsets: dict[int, list[ChunkRecord]] = {}
    cursor = 0
    for _path, var in dataset.all_variables():
        if var.data is None:
            raise FormatError(
                f"variable {var.name!r} has no data to write")
        data = np.ascontiguousarray(var.data)
        records: list[ChunkRecord] = []
        for index in var.iter_chunk_indices():
            chunk = np.ascontiguousarray(data[var.chunk_slices(index)])
            raw = chunk.tobytes()
            stored = (zlib.compress(raw, compression_level)
                      if compression_level > 0 else raw)
            records.append(ChunkRecord(
                index=index, offset=cursor, nbytes=len(stored),
                raw_nbytes=len(raw),
                stats=chunk_stats(chunk) if stats else None))
            blobs.append(stored)
            cursor += len(stored)
        chunk_offsets[id(var)] = records

    header = {
        "version": 1,
        "compressed": compression_level > 0,
        "root": _group_to_json(dataset, chunk_offsets),
    }
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")).encode()
    fileobj.write(magic)
    fileobj.write(_LEN_STRUCT.pack(len(header_bytes)))
    fileobj.write(header_bytes)
    for blob in blobs:
        fileobj.write(blob)
    return MAGIC_LEN + _LEN_STRUCT.size + len(header_bytes) + cursor


# --------------------------------------------------------------------------
# Reading
# --------------------------------------------------------------------------

def _index_from_json(node: dict, prefix: str, compressed: bool,
                     out: dict[str, VariableIndex]) -> None:
    path = f"{prefix}/{node['name']}" if node["name"] else prefix
    for vj in node["variables"]:
        vpath = f"{path}/{vj['name']}"
        out[vpath] = VariableIndex(
            path=vpath,
            name=vj["name"],
            dtype=np.dtype(vj["dtype"]),
            dims=tuple(vj["dims"]),
            shape=tuple(vj["shape"]),
            chunk_shape=tuple(vj["chunk_shape"]),
            attrs=vj["attrs"],
            chunks=[
                # entry[4], when present, is the optional zone map
                # [min, max, count]; four-element entries are the legacy
                # stats-less layout and parse unchanged
                ChunkRecord(
                    tuple(entry[0]), entry[1], entry[2], entry[3],
                    stats=tuple(entry[4]) if len(entry) > 4 else None)
                for entry in vj["chunks"]
            ],
            compressed=compressed,
        )
    for sub in node["groups"]:
        _index_from_json(sub, path, compressed, out)


def read_header(fileobj: BinaryIO,
                expect_magic: Optional[bytes] = None) -> ContainerHeader:
    """Parse the container header; raises :class:`FormatError` on mismatch."""
    fileobj.seek(0)
    magic = fileobj.read(MAGIC_LEN)
    if len(magic) != MAGIC_LEN:
        raise FormatError("truncated file: no magic")
    if expect_magic is not None and magic != expect_magic:
        raise FormatError(
            f"magic mismatch: {magic!r} != {expect_magic!r}")
    raw_len = fileobj.read(_LEN_STRUCT.size)
    if len(raw_len) != _LEN_STRUCT.size:
        raise FormatError("truncated file: no header length")
    (header_len,) = _LEN_STRUCT.unpack(raw_len)
    header_bytes = fileobj.read(header_len)
    if len(header_bytes) != header_len:
        raise FormatError("truncated file: short header")
    try:
        header = json.loads(header_bytes)
    except json.JSONDecodeError as exc:
        raise FormatError(f"corrupt header JSON: {exc}") from exc
    if header.get("version") != 1:
        raise FormatError(f"unsupported version {header.get('version')!r}")
    variables: dict[str, VariableIndex] = {}
    _index_from_json(header["root"], "", header["compressed"], variables)
    return ContainerHeader(
        magic=magic,
        root=header["root"],
        data_start=MAGIC_LEN + _LEN_STRUCT.size + header_len,
        variables=variables,
    )


class ContainerReader:
    """Hyperslab reads over a parsed container.

    The reader only touches the byte ranges of chunks that intersect the
    requested slab — the property SciDP's chunk-aligned dummy blocks
    exploit (§III-B).
    """

    def __init__(self, fileobj: BinaryIO,
                 expect_magic: Optional[bytes] = None):
        self._file = fileobj
        self.header = read_header(fileobj, expect_magic)

    # -- inquiry ---------------------------------------------------------
    def variable_paths(self) -> list[str]:
        return self.header.variable_paths()

    def variable(self, path: str) -> VariableIndex:
        return self.header.variable(path)

    # -- chunk access ----------------------------------------------------
    def read_chunk(self, var: VariableIndex,
                   record: ChunkRecord) -> np.ndarray:
        """Read and decode one chunk as an ndarray of its chunk shape."""
        self._file.seek(self.header.data_start + record.offset)
        stored = self._file.read(record.nbytes)
        if len(stored) != record.nbytes:
            raise FormatError("truncated chunk data")
        raw = zlib.decompress(stored) if var.compressed else stored
        if len(raw) != record.raw_nbytes:
            raise FormatError("chunk payload size mismatch")
        slices = var.chunk_slices(record.index)
        shape = tuple(s.stop - s.start for s in slices)
        return np.frombuffer(raw, dtype=var.dtype).reshape(shape)

    def chunks_for_slab(self, var: VariableIndex,
                        start: tuple[int, ...],
                        count: tuple[int, ...]) -> list[ChunkRecord]:
        """Chunk records intersecting the hyperslab [start, start+count)."""
        if len(start) != len(var.shape) or len(count) != len(var.shape):
            raise ValueError("start/count rank mismatch")
        for s, c, extent in zip(start, count, var.shape):
            if s < 0 or c < 0 or s + c > extent:
                raise ValueError(
                    f"slab [{start}+{count}) outside shape {var.shape}")
        lo = tuple(s // cs for s, cs in zip(start, var.chunk_shape))
        hi = tuple(
            (s + c - 1) // cs if c > 0 else s // cs
            for s, c, cs in zip(start, count, var.chunk_shape))
        wanted = []
        for rec in var.chunks:
            if all(l <= i <= h for i, l, h in zip(rec.index, lo, hi)):
                wanted.append(rec)
        return wanted

    def get_vara(self, path: str, start: Optional[tuple[int, ...]] = None,
                 count: Optional[tuple[int, ...]] = None) -> np.ndarray:
        """netCDF-style hyperslab read of ``count`` items from ``start``."""
        var = self.variable(path)
        if start is None:
            start = (0,) * len(var.shape)
        if count is None:
            count = tuple(s - st for s, st in zip(var.shape, start))
        if any(c == 0 for c in count):
            return np.empty(count, dtype=var.dtype)
        out = np.empty(count, dtype=var.dtype)
        for rec in self.chunks_for_slab(var, tuple(start), tuple(count)):
            chunk = self.read_chunk(var, rec)
            chunk_slc = var.chunk_slices(rec.index)
            # Intersection of the chunk's extent with the slab, expressed
            # both in chunk-local and output-local coordinates.
            src, dst = [], []
            for (cs, st, ct) in zip(chunk_slc, start, count):
                lo = max(cs.start, st)
                hi = min(cs.stop, st + ct)
                src.append(slice(lo - cs.start, hi - cs.start))
                dst.append(slice(lo - st, hi - st))
            out[tuple(dst)] = chunk[tuple(src)]
        return out
