"""PFS server side: MDS (metadata), OST (object store), OSS (server node)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.node import Disk, Node
from repro.pfs.layout import StripeLayout
from repro.sim import Environment

__all__ = ["MDS", "OSS", "OST", "Inode", "PFSError"]

#: Simulated cost of one metadata RPC (lookup/create/stat) at the MDS.
METADATA_RPC_LATENCY = 0.0005


class PFSError(Exception):
    """File system level errors (missing paths, bad arguments...)."""


class OST:
    """Object storage target: one disk plus an object byte store.

    Objects are keyed by (inode id); contents are real bytearrays. The
    disk device charges simulated time for every read/write.
    """

    def __init__(self, env: Environment, disk: Disk, index: int):
        self.env = env
        self.disk = disk
        self.index = index
        self._objects: dict[int, bytearray] = {}
        self.failed = False

    def fail(self) -> None:
        """Failure injection: subsequent reads/writes raise PFSError
        until :meth:`recover` (Lustre has no client-visible replication,
        so a failed OST makes its stripes unreadable)."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    def ensure_object(self, object_id: int) -> bytearray:
        return self._objects.setdefault(object_id, bytearray())

    def object_bytes(self, object_id: int) -> bytearray:
        try:
            return self._objects[object_id]
        except KeyError:
            raise PFSError(f"OST{self.index}: no object {object_id}") from None

    def has_object(self, object_id: int) -> bool:
        return object_id in self._objects

    def drop_object(self, object_id: int) -> None:
        self._objects.pop(object_id, None)

    def write_sync(self, object_id: int, offset: int, data: bytes) -> None:
        """Store bytes with no simulated time (setup/admin path)."""
        obj = self.ensure_object(object_id)
        end = offset + len(data)
        if len(obj) < end:
            obj.extend(b"\x00" * (end - len(obj)))
        obj[offset:end] = data

    def read_sync(self, object_id: int, offset: int, length: int) -> bytes:
        obj = self.object_bytes(object_id)
        if offset + length > len(obj):
            raise PFSError(
                f"OST{self.index}: short object {object_id} "
                f"({offset}+{length} > {len(obj)})")
        return bytes(obj[offset:offset + length])

    def write(self, object_id: int, offset: int, data: bytes):
        """Timed write. DES process."""
        if self.failed:
            raise PFSError(f"OST{self.index} has failed")
        yield self.disk.write(len(data))
        self.write_sync(object_id, offset, data)


class OSS:
    """Object storage server: a storage node fronting several OSTs."""

    def __init__(self, env: Environment, node: Node,
                 ost_start_index: int = 0,
                 n_osts: Optional[int] = None):
        self.env = env
        self.node = node
        n = n_osts if n_osts is not None else len(node.disks)
        if n > len(node.disks):
            raise PFSError(
                f"{node.name}: {n} OSTs requested, {len(node.disks)} disks")
        self.osts = [
            OST(env, node.disks[i], ost_start_index + i) for i in range(n)
        ]


@dataclass
class Inode:
    """Metadata record for one file."""

    inode_id: int
    path: str
    layout: StripeLayout
    osts: list[int] = field(default_factory=list)  # global OST indices
    size: int = 0


class MDS:
    """Metadata server: namespace and inode table.

    Runs on a dedicated storage node (the paper uses one MGS + one MDS +
    OSS nodes); every namespace operation costs one metadata RPC.
    """

    def __init__(self, env: Environment, node: Node):
        self.env = env
        self.node = node
        self._namespace: dict[str, Inode] = {}
        self._next_inode = 1

    @staticmethod
    def normalize(path: str) -> str:
        norm = "/" + "/".join(p for p in path.split("/") if p)
        return norm

    def rpc(self):
        """One metadata round trip. DES process."""
        yield self.env.timeout(METADATA_RPC_LATENCY)

    # Synchronous metadata accessors (callers charge rpc() separately so
    # batch operations can amortise round trips, like real clients do).
    def create(self, path: str, layout: StripeLayout,
               osts: list[int]) -> Inode:
        norm = self.normalize(path)
        if norm in self._namespace:
            raise PFSError(f"file exists: {norm}")
        if len(osts) != layout.stripe_count:
            raise PFSError("OST list length != stripe_count")
        inode = Inode(self._next_inode, norm, layout, list(osts))
        self._next_inode += 1
        self._namespace[norm] = inode
        return inode

    def lookup(self, path: str) -> Inode:
        norm = self.normalize(path)
        try:
            return self._namespace[norm]
        except KeyError:
            raise PFSError(f"no such file: {norm}") from None

    def exists(self, path: str) -> bool:
        return self.normalize(path) in self._namespace

    def unlink(self, path: str) -> Inode:
        norm = self.normalize(path)
        try:
            return self._namespace.pop(norm)
        except KeyError:
            raise PFSError(f"no such file: {norm}") from None

    def listdir(self, path: str) -> list[str]:
        """All file paths directly under ``path`` (flat namespace model)."""
        prefix = self.normalize(path)
        if prefix != "/":
            prefix += "/"
        seen = []
        for p in self._namespace:
            if p.startswith(prefix):
                rest = p[len(prefix):]
                if "/" not in rest:
                    seen.append(p)
        return sorted(seen)
