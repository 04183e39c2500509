"""The SciDP facade: wiring PFS, HDFS, engine, and the R layer together."""

from __future__ import annotations

from typing import Optional

from repro.core.explorer import FileExplorer
from repro.core.mapper import DataMapper
from repro.core.input_format import SciDPInputFormat
from repro.hdfs.block import DEFAULT_BLOCK_SIZE
from repro.io.registry import StorageRegistry, split_url
from repro.pfs.client import PFSClient

__all__ = ["SciDP"]


class SciDP:
    """One SciDP deployment over a compute cluster.

    Parameters mirror the paper's configuration surface: the PFS prefix
    added at job submission (§IV-E.1), the flat-file dummy block size
    (128 MB default), and the optional target block size for splitting
    variable chunks (§III-B block-size tuning).
    """

    def __init__(self, env, nodes, pfs, hdfs, network,
                 prefix: str = "pfs://",
                 mirror_root: str = "/scidp",
                 flat_block_size: int = DEFAULT_BLOCK_SIZE,
                 block_bytes: Optional[int] = None):
        self.env = env
        self.nodes = list(nodes)
        self.pfs = pfs
        self.hdfs = hdfs
        self.network = network
        self.prefix = prefix
        #: scheme the job-submission prefix names (``pfs://`` → ``pfs``;
        #: site-specific prefixes like ``gpfs://`` alias the same PFS)
        self.pfs_scheme = split_url(prefix)[0] or "pfs"
        #: the unified storage registry: scheme-less paths are HDFS (the
        #: "SciDP will behave as the original Hadoop" fallback)
        self.storage = StorageRegistry(default_scheme="hdfs")
        self.storage.register("hdfs", hdfs)
        self.storage.register("pfs", pfs)
        if self.pfs_scheme != "pfs":
            self.storage.register(self.pfs_scheme, pfs)
        self.mapper = DataMapper(
            hdfs.namenode, mirror_root=mirror_root,
            flat_block_size=flat_block_size, block_bytes=block_bytes)
        self._pfs_clients: dict[str, PFSClient] = {}
        #: mapping cache: (pfs_path, variables key) -> mapped entries
        self._mapped: dict[tuple, list] = {}

    # -- clients ---------------------------------------------------------
    def pfs_client(self, node) -> PFSClient:
        if node.name not in self._pfs_clients:
            self._pfs_clients[node.name] = PFSClient(self.pfs, node)
        return self._pfs_clients[node.name]

    def pfs_reader(self, node, granularity: Optional[int] = None,
                   max_inflight: Optional[int] = None, cache=None,
                   track: Optional[str] = None):
        """A :class:`~repro.core.reader.PFSReader` bound to ``node``'s
        PFS client — the sanctioned way for engines above the I/O plane
        (e.g. :mod:`repro.sparklike`) to read dummy blocks without
        importing storage internals."""
        from repro.core.reader import PFSReader
        return PFSReader(self.pfs_client(node), granularity=granularity,
                         max_inflight=max_inflight, cache=cache,
                         track=track)

    # -- mapping -----------------------------------------------------------
    def map_input(self, pfs_path: str,
                  variables: Optional[list[str]] = None):
        """Explore + map one PFS input path. DES process returning
        ``[(virtual_path, [BlockInfo, ...]), ...]``. Cached: repeated jobs
        over the same input reuse the Virtual Mapping Table.
        """
        key = (pfs_path, tuple(sorted(variables)) if variables else None)
        if key in self._mapped:
            return self._mapped[key]
        explorer = FileExplorer(self.pfs_client(self.nodes[0]))
        explored = yield self.env.process(explorer.explore(pfs_path))
        mapped = yield self.env.process(self.mapper.map_files(
            explored, variables=variables))
        entries = []
        for record in mapped:
            for virtual_path in record.virtual_paths:
                blocks = self.hdfs.namenode.get_block_locations(virtual_path)
                entries.append((virtual_path, blocks))
        self._mapped[key] = entries
        return entries

    # -- engine glue -----------------------------------------------------
    def input_format(self, variables: Optional[list[str]] = None,
                     granularity: Optional[int] = None,
                     delegate=None,
                     max_inflight: Optional[int] = None
                     ) -> SciDPInputFormat:
        return SciDPInputFormat(
            self, variables=variables, granularity=granularity,
            delegate=delegate, max_inflight=max_inflight)

    def rmr_session(self, master_node=None):
        """An rmr2-style session whose jobs run on this deployment."""
        from repro.rlang.rmr import RMRSession
        return RMRSession(self.env, self.nodes, self.hdfs, self.network,
                          master_node=master_node)

    def run_job(self, job):
        """Run a JobConf on this deployment. DES process -> JobResult."""
        from repro.mapreduce.runtime import JobRunner
        runner = JobRunner(self.env, self.nodes, self.hdfs,
                           self.network, job)
        result = yield self.env.process(runner.run())
        return result
