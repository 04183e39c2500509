"""Compute-node PFS client with timed, striped reads and writes.

Implements the :class:`repro.io.protocol.StorageClient` protocol; all
planning (per-OST run coalescing, bounded fan-out) is delegated to the
shared :class:`repro.io.planner.ReadPlanner`.
"""

from __future__ import annotations

from typing import Optional

from repro import costs
from repro.cluster.node import Node
from repro.io.plan import Extent
from repro.io.planner import ReadPlanner
from repro.io.write import WritePlanner
from repro.obs.trace import tracer_of
from repro.pfs.filesystem import PFS
from repro.pfs.layout import StripeLayout
from repro.pfs.server import Inode, PFSError
from repro.sim import AllOf

__all__ = ["PFSClient"]


class PFSClient:
    """POSIX-like timed access to a :class:`PFS` from one compute node.

    All public operations are DES processes: drive them with
    ``data = yield env.process(client.read(path, off, n))``.
    """

    def __init__(self, pfs: PFS, node: Node,
                 max_inflight: Optional[int] = None,
                 write_max_inflight: Optional[int] = None,
                 write_chunk: Optional[int] = None):
        self.pfs = pfs
        self.node = node
        self.env = pfs.env
        #: bounded window for coalesced per-OST run fetches;
        #: 0 = unbounded (all runs issued at once)
        self.max_inflight = (costs.PFS_CLIENT_MAX_INFLIGHT
                             if max_inflight is None else max_inflight)
        if self.max_inflight < 0:
            raise ValueError("max_inflight must be >= 0 (0 = unbounded)")
        #: the shared read planner (per-OST coalescing + run fan-out)
        self.planner = ReadPlanner(self.env, scheme="pfs",
                                   max_inflight=self.max_inflight)
        #: bounded window for stripe pushes; 0 = unbounded (the legacy
        #: one-AllOf-over-everything shape)
        self.write_max_inflight = (costs.PFS_WRITE_MAX_INFLIGHT
                                   if write_max_inflight is None
                                   else write_max_inflight)
        #: push-request granularity; None = whole-extent pushes (legacy)
        self.write_chunk = write_chunk
        #: the shared write planner (chunking + push fan-out + metrics)
        self.write_planner = WritePlanner(
            self.env, scheme="pfs", chunk=self.write_chunk,
            max_inflight=self.write_max_inflight)
        #: trace swimlane for this client's spans
        self.track = f"{node.name}.pfs"
        #: Total payload bytes this client has read (bandwidth accounting).
        self.bytes_read = 0.0
        #: Total payload bytes this client has written.
        self.bytes_written = 0.0

    # -- metadata ---------------------------------------------------------
    def stat(self, path: str):
        """Lookup an inode (one metadata RPC). DES process."""
        yield from self.pfs.mds.rpc()
        return self.pfs.mds.lookup(path)

    def listdir(self, path: str):
        """List a directory (one metadata RPC). DES process."""
        yield from self.pfs.mds.rpc()
        return self.pfs.mds.listdir(path)

    def exists(self, path: str):
        """Existence check (one metadata RPC). DES process."""
        yield from self.pfs.mds.rpc()
        return self.pfs.mds.exists(path)

    def delete(self, path: str):
        """Remove a file and its objects (one metadata RPC). DES process."""
        yield from self.pfs.mds.rpc()
        self.pfs.unlink(path)

    # -- data -------------------------------------------------------------
    def _fetch_run(self, inode: Inode, ext: Extent, results: dict):
        """Read one coalesced run from one OST and ship it here.

        Disk I/O and the bulk network transfer are pipelined (Lustre
        streams bulk RPC pages as the OST reads them), so the run takes
        max(disk, network) rather than their sum.
        """
        ost_global = inode.osts[ext.ost_index]
        ost = self.pfs.osts[ost_global]
        if ost.failed:
            raise PFSError(f"OST{ost.index} has failed")
        data = ost.read_sync(inode.inode_id, ext.object_offset, ext.length)
        disk_leg = ost.disk.read(ext.length)
        net_leg = self.pfs.network.transfer(
            self.pfs.ost_node(ost_global), self.node, ext.length)
        yield AllOf(self.env, [disk_leg, net_leg])
        self.planner.account(ext.length)
        results[(ext.ost_index, ext.object_offset)] = (ext, data)

    @staticmethod
    def _map_extents(inode: Inode, extents) -> list[Extent]:
        """Normalize protocol input: logical ``(offset, length)`` ranges
        are mapped through the stripe layout; pre-mapped extents pass
        through untouched."""
        mapped: list[Extent] = []
        for item in extents:
            if isinstance(item, Extent):
                mapped.append(item)
            else:
                offset, length = item
                mapped.extend(inode.layout.map_range(offset, length))
        return mapped

    def read_extents(self, target, extents,
                     max_inflight: Optional[int] = None):
        """Fetch arbitrary extents in parallel across OSTs. DES process.

        ``target`` is a path (one metadata RPC to resolve) or a
        pre-resolved :class:`Inode` (no RPC — the MPI-IO collective
        path). ``extents`` are logical ``(offset, length)`` ranges or
        pre-mapped :class:`Extent` records.

        Coalesced runs merge object-adjacent stripes that interleave in
        the logical file, so reassembly scatters each original extent
        back out of its containing run rather than concatenating runs.

        ``max_inflight`` bounds how many coalesced runs are in flight at
        once (default: the client's window; 0 = all at once).

        Returns the requested bytes ordered by file offset.
        """
        if isinstance(target, Inode):
            inode = target
        else:
            inode = yield self.env.process(self.stat(target))
        extents = self._map_extents(inode, extents)
        per_ost = self.planner.plan_runs(extents)
        results: dict = {}
        all_runs = [run for runs in per_ost.values() for run in runs]
        yield from self.planner.fan_out_runs(
            [lambda run=run: self._fetch_run(inode, run, results)
             for run in all_runs],
            max_inflight)
        run_data: dict[int, list[tuple[Extent, bytes]]] = {}
        for run, data in results.values():
            run_data.setdefault(run.ost_index, []).append((run, data))
        pieces: list[tuple[int, bytes]] = []
        for ext in extents:
            for run, data in run_data[ext.ost_index]:
                if (run.object_offset <= ext.object_offset
                        and ext.object_offset + ext.length
                        <= run.object_offset + run.length):
                    lo = ext.object_offset - run.object_offset
                    pieces.append((ext.file_offset,
                                   data[lo:lo + ext.length]))
                    break
            else:  # pragma: no cover - coalesce invariant violated
                raise PFSError("extent not covered by any coalesced run")
        ordered = b"".join(data for _off, data in sorted(pieces))
        self.bytes_read += len(ordered)
        return ordered

    def read(self, path: str, offset: int = 0,
             length: Optional[int] = None):
        """Timed read of ``length`` bytes at ``offset``. DES process."""
        with tracer_of(self.env).span(
                "pfs.read", cat="storage", track=self.track,
                path=path, offset=offset) as span:
            inode = yield self.env.process(self.stat(path))
            if length is None:
                length = inode.size - offset
            if offset + length > inode.size:
                raise PFSError(
                    f"read past EOF: {offset}+{length} > {inode.size}")
            if length == 0:
                return b""
            extents = inode.layout.map_range(offset, length)
            span.set(bytes=length, extents=len(extents))
            data = yield self.env.process(self.read_extents(inode, extents))
            # map_range yields stripe-order == file-order pieces; the
            # coalesced reassembly preserved that, but guard the contract
            # here.
            assert len(data) == length, (len(data), length)
            return data

    def read_block(self, block, offset: int = 0, length: int = -1,
                   max_inflight: Optional[int] = None):
        """Read one virtual (dummy) block's flat PFS bytes. DES process.

        The protocol's unified ``read_block`` surface: a PFS has no
        native blocks, but it can serve a :class:`BlockInfo` whose
        ``virtual`` payload names a flat file segment — the ``scidp://``
        resolution path. Hyperslab blocks need a
        :class:`~repro.core.reader.PFSReader` (decompression and
        reassembly live there).
        """
        virtual = getattr(block, "virtual", None)
        if virtual is None:
            raise PFSError(
                "PFS has no native blocks; read_block needs a virtual "
                "(dummy) BlockInfo")
        if virtual.hyperslab is not None:
            raise PFSError(
                "hyperslab dummy blocks decompress through "
                "repro.core.reader.PFSReader, not the raw PFS client")
        if length < 0:
            length = virtual.length - offset
        if offset + length > virtual.length:
            raise PFSError("read past end of block")
        data = yield self.env.process(
            self.read(virtual.source_path, virtual.offset + offset, length))
        return data

    def _push_run(self, inode: Inode, ext: Extent, data: bytes):
        ost_global = inode.osts[ext.ost_index]
        ost = self.pfs.osts[ost_global]
        yield self.pfs.network.transfer(
            self.node, self.pfs.ost_node(ost_global), len(data))
        yield self.env.process(
            ost.write(inode.inode_id, ext.object_offset, data))

    def write(self, path: str, data: bytes, offset: int = 0,
              layout: Optional[StripeLayout] = None,
              max_inflight: Optional[int] = None):
        """Timed write; creates the file if missing. DES process.

        The push plan comes from the shared
        :class:`~repro.io.write.WritePlanner`: at the defaults
        (``write_chunk=None``, ``write_max_inflight=0``) that is exactly
        the legacy shape — one RPC per stripe extent, all pushes issued
        up front under one ``AllOf``. A chunk size chops pushes to a
        granularity (payload-contiguous runs coalesce first) and
        ``max_inflight`` (default: the client's window) bounds how many
        pushes are in flight at once.
        """
        with tracer_of(self.env).span(
                "pfs.write", cat="storage", track=self.track,
                path=path, bytes=len(data)):
            yield from self.pfs.mds.rpc()
            if self.pfs.mds.exists(path):
                inode = self.pfs.mds.lookup(path)
            else:
                inode = self.pfs.create(path, layout)
            extents = inode.layout.map_range(offset, len(data))
            plan = self.write_planner.plan_extents(extents)
            factories = []
            for ext in plan:
                chunk = data[ext.file_offset - offset:
                             ext.file_offset - offset + ext.length]
                factories.append(
                    lambda e=ext, c=chunk: self._push_run(inode, e, c))
            yield from self.write_planner.fan_out_stripes(
                factories, max_inflight)
            inode.size = max(inode.size, offset + len(data))
            self.bytes_written += len(data)
            self.write_planner.account(len(data), requests=plan.n_requests)
            return inode
