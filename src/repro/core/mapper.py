"""Data Mapper: the Virtual Mapping Table (§III-A.2, §III-B, Fig. 4).

Flat files map to fixed-size dummy blocks mirroring the file's segments
(128 MB by default). Scientific files map to a directory tree mirroring
the group structure, one virtual HDFS file per variable, with dummy
blocks aligned to the variable's compressed chunks. A user-tunable target
block size can split one chunk across several dummy blocks ("the second
chunk ... is mapped to two dummy blocks to split the workloads into two
tasks"); each sub-block's reader must then fetch the *whole* chunk —
the unaligned-access overhead §III-B warns about, and the subject of the
chunk-alignment ablation bench.

Dummy blocks carry no locations; only metadata reaches the NameNode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.explorer import ExploredFile
from repro.formats.container import VariableIndex
from repro.hdfs.block import DEFAULT_BLOCK_SIZE, VirtualBlock
from repro.hdfs.namenode import NameNode
from repro.io.plan import element_bytes

__all__ = ["DataMapper", "MappedFile", "VirtualMappingTable"]


@dataclass
class MappedFile:
    """One source file's mirror on HDFS."""

    source: ExploredFile
    virtual_paths: list[str] = field(default_factory=list)


class VirtualMappingTable:
    """virtual path -> (source file, variable path or None).

    The paper stores file/variable header information extracted via
    ``nc_inq``/``nc_inq_var`` here; our entries keep the parsed
    :class:`VariableIndex` so partitions are computed "without any
    indexing beforehand" (§III-A.2).
    """

    def __init__(self):
        self._entries: dict[str, tuple[ExploredFile, Optional[str]]] = {}

    def register(self, virtual_path: str, source: ExploredFile,
                 variable_path: Optional[str]) -> None:
        if virtual_path in self._entries:
            raise ValueError(f"virtual path {virtual_path!r} already mapped")
        self._entries[virtual_path] = (source, variable_path)

    def lookup(self, virtual_path: str) -> tuple[ExploredFile, Optional[str]]:
        return self._entries[virtual_path]

    def __contains__(self, virtual_path: str) -> bool:
        return virtual_path in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def paths(self) -> list[str]:
        return list(self._entries)


def _leading_split(start: tuple[int, ...], count: tuple[int, ...],
                   pieces: int) -> list[tuple[tuple[int, ...],
                                              tuple[int, ...]]]:
    """Split a hyperslab into ``pieces`` along its first splittable axis.

    Chunks often have a leading extent of 1 (one z-level per chunk), so
    the split walks to the first axis with extent > 1.
    """
    if not count or pieces <= 1:
        return [(tuple(start), tuple(count))]
    axis = next((i for i, c in enumerate(count) if c > 1), None)
    if axis is None:
        return [(tuple(start), tuple(count))]
    lead = count[axis]
    pieces = min(pieces, lead)
    out = []
    base = lead // pieces
    extra = lead % pieces
    offset = start[axis]
    for i in range(pieces):
        extent = base + (1 if i < extra else 0)
        if extent == 0:
            continue
        sub_start = tuple(start[:axis]) + (offset,) + tuple(start[axis + 1:])
        sub_count = tuple(count[:axis]) + (extent,) + tuple(count[axis + 1:])
        out.append((sub_start, sub_count))
        offset += extent
    return out


class DataMapper:
    """Builds virtual files + dummy blocks from explored inputs."""

    def __init__(self, namenode: NameNode, mirror_root: str = "/scidp",
                 flat_block_size: int = DEFAULT_BLOCK_SIZE,
                 block_bytes: Optional[int] = None):
        """``block_bytes``: optional target raw bytes per dummy block for
        scientific variables (None = one block per chunk, the default
        chunk-aligned mapping)."""
        if flat_block_size < 1:
            raise ValueError("flat_block_size must be >= 1")
        if block_bytes is not None and block_bytes < 1:
            raise ValueError("block_bytes must be >= 1")
        self.namenode = namenode
        self.mirror_root = mirror_root.rstrip("/")
        self.flat_block_size = flat_block_size
        self.block_bytes = block_bytes
        self.table = VirtualMappingTable()

    def _mirror_path(self, source_path: str,
                     variable_path: Optional[str] = None) -> str:
        base = f"{self.mirror_root}{source_path}"
        if variable_path:
            base = f"{base}{variable_path}"
        return base

    def map_files(self, explored: list[ExploredFile],
                  variables: Optional[list[str]] = None):
        """DES process returning list[MappedFile].

        ``variables`` subsets scientific files at the variable level
        (§IV-B): entries match either the variable name or its full group
        path. Unrelated variables are skipped entirely, which also keeps
        the mapping table small ("minimize the time to build the mapping
        table", §III-B).
        """
        mapped: list[MappedFile] = []
        for source in explored:
            record = MappedFile(source=source)
            if source.is_scientific:
                yield from self._map_scientific(
                    source, variables, record)
            else:
                yield from self._map_flat(source, record)
            mapped.append(record)
        return mapped

    # -- flat ------------------------------------------------------------
    def _map_flat(self, source: ExploredFile, record: MappedFile):
        blocks = []
        pos = 0
        while pos < source.size:
            length = min(self.flat_block_size, source.size - pos)
            blocks.append(VirtualBlock(
                source_path=source.path, offset=pos, length=length))
            pos += length
        virtual_path = self._mirror_path(source.path)
        if virtual_path in self.table:  # reuse across jobs (§III-A.2)
            record.virtual_paths.append(virtual_path)
            return
        yield from self.namenode.rpc()
        self.namenode.create_virtual_file(virtual_path, blocks)
        self.table.register(virtual_path, source, None)
        record.virtual_paths.append(virtual_path)

    # -- scientific -------------------------------------------------------
    @staticmethod
    def _selected(var: VariableIndex,
                  variables: Optional[list[str]]) -> bool:
        if variables is None:
            return True
        return var.name in variables or var.path in variables

    def _variable_blocks(self, source: ExploredFile,
                         var: VariableIndex) -> list[VirtualBlock]:
        data_start = source.header.data_start
        blocks: list[VirtualBlock] = []
        for rec in var.chunks:
            slices = var.chunk_slices(rec.index)
            start = tuple(s.start for s in slices)
            count = tuple(s.stop - s.start for s in slices)
            pieces = 1
            if self.block_bytes is not None and \
                    rec.raw_nbytes > self.block_bytes:
                pieces = math.ceil(rec.raw_nbytes / self.block_bytes)
            chunk_meta = {
                "offset": data_start + rec.offset,
                "nbytes": rec.nbytes,
                "raw_nbytes": rec.raw_nbytes,
                "index": list(rec.index),
                "start": list(start),
                "count": list(count),
            }
            sub_slabs = _leading_split(start, count, pieces)
            for sub_start, sub_count in sub_slabs:
                raw_sub = element_bytes(var.dtype, sub_count,
                                        scalar_when_empty=True)
                frac = raw_sub / max(1, rec.raw_nbytes)
                blocks.append(VirtualBlock(
                    source_path=source.path,
                    offset=data_start + rec.offset,
                    length=max(1, int(rec.nbytes * frac)),
                    hyperslab={
                        "container": source.format,
                        "variable": var.path,
                        "dtype": var.dtype.str,
                        "shape": list(var.shape),
                        "start": list(sub_start),
                        "count": list(sub_count),
                        "compressed": var.compressed,
                        "chunks": [chunk_meta],
                        "aligned": len(sub_slabs) == 1,
                    },
                ))
        return blocks

    def _map_scientific(self, source: ExploredFile,
                        variables: Optional[list[str]],
                        record: MappedFile):
        assert source.header is not None
        for var_path in source.header.variable_paths():
            var = source.header.variable(var_path)
            if not self._selected(var, variables):
                continue
            virtual_path = self._mirror_path(source.path, var.path)
            if virtual_path in self.table:  # reuse across jobs (§III-A.2)
                record.virtual_paths.append(virtual_path)
                continue
            blocks = self._variable_blocks(source, var)
            yield from self.namenode.rpc()
            self.namenode.create_virtual_file(virtual_path, blocks)
            self.table.register(virtual_path, source, var.path)
            record.virtual_paths.append(virtual_path)
