"""DFSClient: write pipeline and locality-aware reads.

Implements the :class:`repro.io.protocol.StorageClient` protocol; block
fan-out is delegated to the shared :class:`repro.io.planner.ReadPlanner`
and writes to the :class:`repro.io.write.WritePlanner` (``hdfs``
scheme), which roll this client's traffic into the per-scheme datapath
metrics.

The write path has two replication disciplines:

- **store-and-forward** (``packet_bytes=None``, the default): each
  block is shipped whole to replica N, written, then shipped on to
  replica N+1 (timings pinned by ``tests/golden/io.json``).
- **packet pipeline** (``packet_bytes`` set, e.g.
  ``costs.HDFS_PACKET_BYTES``): the block is split into packets that
  stream down the replica chain like a real DataNode pipeline, so hop
  N→N+1 overlaps hop N−1→N and each replica's disk writes overlap the
  network streams.

Independently, ``write_parallel_blocks`` bounds how many block
pipelines of one file are in flight at once (1 = one sequential
output stream).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.node import Node
from repro.hdfs.block import BlockInfo
from repro.hdfs.namenode import HDFSError
from repro.io.planner import ReadPlanner, chop_range
from repro.io.write import WritePlanner
from repro.obs.trace import tracer_of
from repro.sim import AllOf, Event

__all__ = ["DFSClient"]


class DFSClient:
    """HDFS client bound to one cluster node.

    All public operations are DES processes. Reads prefer a replica on
    this node (pure local-disk path, no network) — the design point the
    paper credits for native HDFS's Fig. 2 win: "HDFS minimizes latency
    and interference by maximizing local access".
    """

    def __init__(self, hdfs, node: Node,
                 packet_bytes: Optional[int] = None,
                 write_parallel_blocks: Optional[int] = None):
        self.hdfs = hdfs
        self.node = node
        self.env = hdfs.env
        #: the shared read planner (block fan-out + per-scheme metrics)
        self.planner = ReadPlanner(self.env, scheme="hdfs")
        #: the shared write planner (block fan-out + per-scheme metrics)
        self.write_planner = WritePlanner(self.env, scheme="hdfs")
        #: replication pipeline packet size; None = whole-block
        #: store-and-forward
        self.packet_bytes = (
            getattr(hdfs, "packet_bytes", None)
            if packet_bytes is None else packet_bytes)
        #: concurrent block pipelines per write; 1 = sequential stream
        self.write_parallel_blocks = (
            getattr(hdfs, "write_parallel_blocks", 1)
            if write_parallel_blocks is None else write_parallel_blocks)
        #: trace swimlane for this client's spans
        self.track = f"{node.name}.hdfs"
        #: payload bytes read/written by this client
        self.bytes_read = 0.0
        self.bytes_written = 0.0

    # -- write --------------------------------------------------------------
    def _write_block(self, path: str, chunk: bytes):
        """Allocate one block and push it down the replication pipeline."""
        namenode = self.hdfs.namenode
        yield from namenode.rpc()
        block = namenode.add_block(path, len(chunk), writer=self.node.name)
        yield from self._push_block(block, chunk)
        return block

    def _push_block(self, block: BlockInfo, chunk: bytes):
        """Push one allocated block's bytes down the replica chain. DES
        generator; dispatches on the configured replication discipline."""
        if self.packet_bytes is None or not block.locations:
            yield from self._store_and_forward(block, chunk)
        else:
            yield from self._push_block_pipelined(block, chunk)
        self.write_planner.account(len(chunk))

    def _store_and_forward(self, block: BlockInfo, chunk: bytes):
        """Whole-block replication: ship to replica N, write, ship on to
        replica N+1. DES generator."""
        prev_node = self.node
        for target_name in block.locations:
            datanode = self.hdfs.datanode(target_name)
            yield self.hdfs.network.transfer(
                prev_node, datanode.node, len(chunk))
            yield self.env.process(datanode.write(block.block_id, chunk))
            prev_node = datanode.node

    def _push_block_pipelined(self, block: BlockInfo, chunk: bytes):
        """Packet-pipelined replication: the block streams down the
        replica chain in ``packet_bytes`` packets, so hop N→N+1 overlaps
        hop N−1→N and replica disks overlap the network streams. DES
        generator.

        One link process per hop; ``ready[h][k]`` fires when packet k
        has fully arrived at replica h, releasing hop h+1's send of that
        packet. Each arrival also forks the replica's packet disk write;
        the block is sealed on every replica once all links and disk
        writes have landed.
        """
        env = self.env
        pieces = chop_range(0, len(chunk), self.packet_bytes)
        targets = [self.hdfs.datanode(name) for name in block.locations]
        ready = [[Event(env) for _ in pieces] for _ in targets]
        disk_writes: list = []

        def link(h):
            src = self.node if h == 0 else targets[h - 1].node
            dst = targets[h]
            for k, (off, n) in enumerate(pieces):
                if h > 0:
                    yield ready[h - 1][k]
                yield self.hdfs.network.transfer(src, dst.node, n)
                ready[h][k].succeed()
                disk_writes.append(env.process(dst.write_packet(
                    block.block_id, chunk[off:off + n], off)))

        links = [env.process(link(h)) for h in range(len(targets))]
        yield AllOf(env, links)
        if disk_writes:
            yield AllOf(env, disk_writes)
        for dst in targets:
            dst.commit_block(block.block_id)

    def write(self, path: str, data: bytes,
              block_size: Optional[int] = None,
              replication: Optional[int] = None):
        """Create ``path`` and write ``data`` through the pipeline.

        With ``write_parallel_blocks == 1`` (the default) blocks are
        written sequentially, as a real output stream does. A larger (or
        0 = unbounded) window allocates every block up front — namenode
        placement stays in file order — and keeps that many block
        pipelines in flight at once.

        DES process; returns the FileEntry.
        """
        with tracer_of(self.env).span(
                "hdfs.write", cat="storage", track=self.track,
                path=path, bytes=len(data)):
            namenode = self.hdfs.namenode
            yield from namenode.rpc()
            entry = namenode.create_file(path, block_size, replication)
            window = self.write_parallel_blocks
            pos = 0
            if window == 1:
                while pos < len(data):
                    chunk = data[pos:pos + entry.block_size]
                    yield self.env.process(
                        self._write_block(entry.path, chunk))
                    pos += len(chunk)
            else:
                allocated: list[tuple[BlockInfo, bytes]] = []
                while pos < len(data):
                    chunk = data[pos:pos + entry.block_size]
                    yield from namenode.rpc()
                    allocated.append((
                        namenode.add_block(
                            entry.path, len(chunk), writer=self.node.name),
                        chunk))
                    pos += len(chunk)
                yield from self.write_planner.fan_out_blocks(
                    [lambda b=b, c=c: self._push_block(b, c)
                     for b, c in allocated],
                    window)
            namenode.complete_file(entry.path)
            self.bytes_written += len(data)
            return entry

    # -- read ---------------------------------------------------------------
    def _pick_replica(self, block: BlockInfo) -> str:
        """Prefer a local live replica, then any live replica — the
        failover real DFSInputStreams perform when a datanode dies."""
        if not block.locations:
            raise HDFSError(
                f"block {block.block_id} has no locations "
                f"({'virtual block' if block.is_virtual else 'corrupt'})")
        live = [name for name in block.locations
                if self.hdfs.datanode(name).alive]
        if not live:
            raise HDFSError(
                f"block {block.block_id}: all replicas unreachable "
                f"({block.locations})")
        for name in live:
            if name == self.node.name:
                return name
        return live[0]

    def read_block(self, block: BlockInfo, offset: int = 0,
                   length: int = -1, max_inflight: Optional[int] = None):
        """Read one block, preferring a local replica. DES process.

        ``max_inflight`` is accepted for the unified ``read_block``
        surface; a single HDFS block is one datanode stream, so it has
        nothing to fan out.
        """
        del max_inflight  # one replica stream; kwarg kept for uniformity
        replica = self._pick_replica(block)
        datanode = self.hdfs.datanode(replica)
        local = datanode.node is self.node
        with tracer_of(self.env).span(
                "hdfs.read_block", cat="storage", track=self.track,
                block=block.block_id, replica=replica,
                locality="node_local" if local else "remote") as span:
            data = yield self.env.process(
                datanode.read(block.block_id, offset, length))
            if not local:
                yield self.hdfs.network.transfer(
                    datanode.node, self.node, len(data))
            self.bytes_read += len(data)
            self.planner.account(len(data))
            span.set(bytes=len(data))
        return data

    @staticmethod
    def _block_pieces(blocks: list[BlockInfo], offset: int,
                      length: int) -> list[tuple[BlockInfo, int, int]]:
        """``(block, in-block offset, nbytes)`` pieces covering a logical
        file range, in file order."""
        pieces: list[tuple[BlockInfo, int, int]] = []
        pos = 0
        end = offset + length
        for block in blocks:
            lo = max(offset, pos)
            hi = min(end, pos + block.length)
            if lo < hi:
                pieces.append((block, lo - pos, hi - lo))
            pos += block.length
        if pos < end:
            raise HDFSError(
                f"read past EOF: {offset}+{length} > {pos}")
        return pieces

    def read(self, path: str, offset: int = 0, length: Optional[int] = None,
             max_inflight: int = 1):
        """Read a byte range (default: the whole file). DES process.

        ``max_inflight > 1`` keeps that many block reads in flight at a
        time (0 = all blocks at once); the default streams serially, the
        stock ``DFSInputStream`` behaviour.
        """
        namenode = self.hdfs.namenode
        yield from namenode.rpc()
        blocks = namenode.get_block_locations(path)
        if offset == 0 and length is None:
            factories = [lambda b=b: self.read_block(b) for b in blocks]
        else:
            if length is None:
                length = sum(b.length for b in blocks) - offset
            factories = [
                lambda b=b, o=o, n=n: self.read_block(b, o, n)
                for b, o, n in self._block_pieces(blocks, offset, length)]
        parts = yield from self.planner.fan_out_blocks(
            factories, max_inflight)
        return b"".join(parts)

    def read_extents(self, path: str, extents,
                     max_inflight: Optional[int] = None):
        """Fetch arbitrary ``(offset, length)`` ranges of a file. DES
        process; returns the requested bytes ordered by file offset.

        ``max_inflight`` bounds how many block pieces are in flight at
        once (default: serial, the stock streaming discipline).
        """
        namenode = self.hdfs.namenode
        yield from namenode.rpc()
        blocks = namenode.get_block_locations(path)
        pieces = [piece
                  for offset, length in sorted(extents)
                  for piece in self._block_pieces(blocks, offset, length)]
        parts = yield from self.planner.fan_out_blocks(
            [lambda b=b, o=o, n=n: self.read_block(b, o, n)
             for b, o, n in pieces],
            max_inflight)
        return b"".join(parts)

    # -- metadata -------------------------------------------------------------
    def stat(self, path: str):
        """Lookup a file entry (one RPC). DES process."""
        yield from self.hdfs.namenode.rpc()
        return self.hdfs.namenode.lookup(path)

    def get_block_locations(self, path: str):
        """Block list with locations (one RPC). DES process."""
        yield from self.hdfs.namenode.rpc()
        return self.hdfs.namenode.get_block_locations(path)

    def listdir(self, path: str):
        """Directory listing (one RPC). DES process."""
        yield from self.hdfs.namenode.rpc()
        return self.hdfs.namenode.listdir(path)

    def exists(self, path: str):
        """Existence check (one RPC). DES process."""
        yield from self.hdfs.namenode.rpc()
        return self.hdfs.namenode.exists(path)

    def delete(self, path: str):
        """Remove a file and its replicas (one RPC). DES process."""
        yield from self.hdfs.namenode.rpc()
        entry = self.hdfs.namenode.delete(path)
        for block in entry.blocks:
            for name in block.locations:
                self.hdfs.datanode(name).drop(block.block_id)
