"""NameNode: namespace, block map, and placement policy."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hdfs.block import DEFAULT_BLOCK_SIZE, BlockInfo, VirtualBlock
from repro.sim import Environment

__all__ = ["FileEntry", "HDFSError", "NameNode"]

#: One NameNode RPC (create/add-block/get-locations).
NAMENODE_RPC_LATENCY = 0.0003


class HDFSError(Exception):
    """HDFS-level errors."""


@dataclass
class FileEntry:
    """Namespace record for one file."""

    path: str
    block_size: int
    replication: int
    blocks: list[BlockInfo] = field(default_factory=list)
    complete: bool = False

    @property
    def size(self) -> int:
        return sum(b.length for b in self.blocks)

    @property
    def is_virtual(self) -> bool:
        return any(b.is_virtual for b in self.blocks)


class NameNode:
    """Master metadata service.

    Placement policy: first replica on the writer's DataNode when it is
    one, remaining replicas round-robin — deterministic, locality-first,
    matching stock HDFS behaviour closely enough for the experiments.
    """

    def __init__(self, env: Environment,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 replication: int = 1):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.env = env
        self.block_size = block_size
        self.replication = replication
        self._files: dict[str, FileEntry] = {}
        #: registration-ordered list (drives round-robin placement) plus
        #: a mirror set for O(1) membership — the list alone made every
        #: registration / placement / decommission check O(n)
        self._datanodes: list[str] = []
        self._datanode_set: set[str] = set()
        self._next_block_id = 1
        self._rr = 0  # round-robin cursor

    # -- registration ------------------------------------------------------
    def register_datanode(self, name: str) -> None:
        if name in self._datanode_set:
            raise HDFSError(f"datanode {name!r} already registered")
        self._datanodes.append(name)
        self._datanode_set.add(name)

    def has_datanode(self, name: str) -> bool:
        """O(1) membership test — preferred over scanning ``datanodes``."""
        return name in self._datanode_set

    @property
    def datanodes(self) -> list[str]:
        return list(self._datanodes)

    @staticmethod
    def normalize(path: str) -> str:
        return "/" + "/".join(p for p in path.split("/") if p)

    def rpc(self):
        """One NameNode round trip. DES process."""
        yield self.env.timeout(NAMENODE_RPC_LATENCY)

    # -- namespace ----------------------------------------------------------
    def create_file(self, path: str,
                    block_size: Optional[int] = None,
                    replication: Optional[int] = None) -> FileEntry:
        norm = self.normalize(path)
        if norm in self._files:
            raise HDFSError(f"file exists: {norm}")
        entry = FileEntry(
            path=norm,
            block_size=block_size or self.block_size,
            replication=replication or self.replication,
        )
        self._files[norm] = entry
        return entry

    def create_virtual_file(self, path: str,
                            blocks: list[VirtualBlock]) -> FileEntry:
        """Create a dummy-block file mapping to PFS data (§III-A.2).

        No DataNode storage is allocated; each block's length is the
        mapped segment's length and its location list is empty.
        """
        entry = self.create_file(path)
        for vb in blocks:
            entry.blocks.append(BlockInfo(
                block_id=self._next_block_id,
                length=vb.length,
                locations=[],
                virtual=vb,
            ))
            self._next_block_id += 1
        entry.complete = True
        return entry

    def lookup(self, path: str) -> FileEntry:
        norm = self.normalize(path)
        try:
            return self._files[norm]
        except KeyError:
            raise HDFSError(f"no such file: {norm}") from None

    def exists(self, path: str) -> bool:
        return self.normalize(path) in self._files

    def delete(self, path: str) -> FileEntry:
        norm = self.normalize(path)
        try:
            return self._files.pop(norm)
        except KeyError:
            raise HDFSError(f"no such file: {norm}") from None

    def listdir(self, path: str) -> list[str]:
        prefix = self.normalize(path)
        if prefix != "/":
            prefix += "/"
        out = []
        for p in self._files:
            if p.startswith(prefix):
                rest = p[len(prefix):]
                if "/" not in rest:
                    out.append(p)
        return sorted(out)

    # -- blocks --------------------------------------------------------------
    def choose_targets(self, writer: Optional[str],
                       replication: int) -> list[str]:
        if not self._datanodes:
            raise HDFSError("no datanodes registered")
        replication = min(replication, len(self._datanodes))
        targets: list[str] = []
        if writer is not None and writer in self._datanode_set:
            targets.append(writer)
        while len(targets) < replication:
            candidate = self._datanodes[self._rr % len(self._datanodes)]
            self._rr += 1
            if candidate not in targets:
                targets.append(candidate)
        return targets

    def add_block(self, path: str, length: int,
                  writer: Optional[str] = None) -> BlockInfo:
        entry = self.lookup(path)
        if entry.complete:
            raise HDFSError(f"file {path!r} is complete")
        if length < 0 or length > entry.block_size:
            raise HDFSError(
                f"bad block length {length} (block_size {entry.block_size})")
        block = BlockInfo(
            block_id=self._next_block_id,
            length=length,
            locations=self.choose_targets(writer, entry.replication),
        )
        self._next_block_id += 1
        entry.blocks.append(block)
        return block

    def complete_file(self, path: str) -> None:
        self.lookup(path).complete = True

    def get_block_locations(self, path: str) -> list[BlockInfo]:
        entry = self.lookup(path)
        if not entry.complete:
            raise HDFSError(f"file {path!r} is not complete")
        return list(entry.blocks)

    def blocks_on(self, datanode_name: str) -> list[BlockInfo]:
        """All blocks holding a replica on ``datanode_name``."""
        out = []
        for entry in self._files.values():
            for block in entry.blocks:
                if datanode_name in block.locations:
                    out.append(block)
        return out

    def unregister_datanode(self, name: str) -> None:
        """Remove a datanode from placement decisions."""
        if name not in self._datanode_set:
            raise HDFSError(f"unknown datanode {name!r}")
        self._datanode_set.discard(name)
        self._datanodes.remove(name)
