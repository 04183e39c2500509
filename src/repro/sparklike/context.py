"""The Spark-like driver: context knobs, sources, actions, recovery.

The context records lineage only; actions go through the DAG
scheduler (:mod:`repro.sparklike.scheduler`). The three optimisation
knobs default OFF; the default-knob event trace is the baseline the
bench speed-ups are quoted against, pinned at 1e-9 by per-action
timestamps recorded from the retired eager engine
(``tests/golden/sparklike.json``):

``fusion=True``
    fuse narrow map/filter/flat_map chains into one per-partition pass
    (interior ops charge ``fused_interior_share`` of the record cost).
``cache_capacity=<bytes>``
    bound the per-node block store; LRU eviction, with
    "memory_and_disk" blocks spilling to shared storage.
``shuffle_parallel_copies=<k>``
    bound reducer fetch fan-out through a FanoutWindow instead of the
    all-at-once barrier.

Storage is reached only through the :mod:`repro.io` plane: sources and
spills resolve URLs via a :class:`~repro.io.registry.StorageRegistry`
(the attached SciDP runtime's registry when present), and the SciDP
source reads dummy blocks through :meth:`SciDP.pfs_reader` rather than
importing storage internals — enforced by the layering lint.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.io.registry import StorageRegistry, join_url
from repro.mapreduce.shuffle import estimate_size
from repro.obs import metrics_of
from repro.sparklike import dag
from repro.sparklike.cache import BlockStore
from repro.sparklike.rdd import RDD, ShuffleDependency, SparkLikeError
from repro.sparklike.scheduler import DAGScheduler

__all__ = ["Context"]


class _ParallelRDD(RDD):
    """Driver-provided data split into partitions."""

    def __init__(self, ctx, data: list, n_partitions: int):
        super().__init__(ctx, n_partitions)
        share = -(-len(data) // n_partitions) if data else 1
        self.slices = [
            data[i * share:(i + 1) * share] for i in range(n_partitions)
        ]

    def compute(self, index: int, task):
        # Driver data is shipped to the executor.
        size = estimate_size(self.slices[index])
        if size:
            yield self.ctx.network.transfer(
                self.ctx.driver_node, task.node, size)
        return list(self.slices[index])


class _TextFileRDD(RDD):
    """One partition per storage block; records are whole text lines.

    Uses the same boundary rule as the MapReduce TextInputFormat: a
    partition owns every line that *starts* inside its block, peeking at
    the previous block's last byte and reading into following blocks to
    complete its final line.
    """

    def __init__(self, ctx, url: str):
        # Resolve through the storage registry: scheme-less paths hit
        # the default backend, so plain HDFS paths keep working.
        facade, path = ctx.registry.resolve(url)
        self.facade = facade
        partitions = []  # (file_blocks, position within file)
        for file_path in (facade.listdir(path) or [path]):
            file_blocks = facade.get_blocks(file_path)
            for i in range(len(file_blocks)):
                partitions.append((file_blocks, i))
        if not partitions:
            raise SparkLikeError(f"no input at {url!r}")
        super().__init__(ctx, len(partitions))
        self.partitions = partitions

    def partition_locations(self, index: int) -> list[str]:
        _blocks, i = self.partitions[index]
        return list(_blocks[i].locations)

    def compute(self, index: int, task):
        blocks, i = self.partitions[index]
        client = self.facade.client(task.node)
        data = yield self.ctx.env.process(client.read_block(blocks[i]))

        head = 0
        if i > 0:
            prev = blocks[i - 1]
            last = yield self.ctx.env.process(
                client.read_block(prev, prev.length - 1, 1))
            if last != b"\n":
                newline = data.find(b"\n")
                if newline < 0:
                    return []  # mid-line of one huge record
                head = newline + 1

        tail = data
        if i + 1 < len(blocks) and not data.endswith(b"\n"):
            extra = b""
            for nxt in blocks[i + 1:]:
                piece = yield self.ctx.env.process(
                    client.read_block(nxt, 0, min(1024, nxt.length)))
                newline = piece.find(b"\n")
                if newline >= 0:
                    extra += piece[:newline]
                    break
                extra += piece
            tail = data + extra
        return tail[head:].splitlines()


class _SciDPRDD(RDD):
    """One partition per SciDP dummy block: the PFS-direct source.

    Records are ``((source_path, variable, start), ndarray)`` — the same
    shape SciDPInputFormat feeds the MapReduce engine.
    """

    def __init__(self, ctx, pfs_path: str,
                 variables: Optional[list[str]] = None):
        if ctx.scidp is None:
            raise SparkLikeError("context has no SciDP runtime attached")
        proc = ctx.env.process(
            ctx.scidp.map_input(pfs_path, variables=variables))
        ctx.env.run()
        entries = proc.value
        self.blocks = [
            (virtual_path, block)
            for virtual_path, blocks in entries for block in blocks
        ]
        if not self.blocks:
            raise SparkLikeError(f"no scientific input at {pfs_path!r}")
        super().__init__(ctx, len(self.blocks))

    def compute(self, index: int, task):
        _virtual_path, block = self.blocks[index]
        reader = self.ctx.scidp.pfs_reader(task.node)
        data = yield self.ctx.env.process(
            reader.read_block(block.virtual))
        vb = block.virtual
        if vb.hyperslab is None:
            key = (vb.source_path, vb.offset)
        else:
            key = (vb.source_path, vb.hyperslab["variable"],
                   tuple(vb.hyperslab["start"]))
        return [(key, data)]


class Context:
    """The Spark-like driver: sources, scheduling, executors."""

    def __init__(self, env, nodes, storage, network, scidp=None,
                 executor_cores: int = 4,
                 record_cost: float = 1e-7,
                 task_startup: float = 0.01,
                 fusion: bool = False,
                 fused_interior_share: float = 0.5,
                 cache_capacity: Optional[int] = None,
                 shuffle_parallel_copies: int = 0):
        if not nodes:
            raise SparkLikeError("need at least one executor node")
        self.env = env
        self.nodes = list(nodes)
        self.storage = storage
        self.network = network
        self.scidp = scidp
        self.executor_cores = executor_cores
        self.record_cost = record_cost
        self.task_startup = task_startup
        self.fusion = fusion
        self.fused_interior_share = fused_interior_share
        self.shuffle_parallel_copies = shuffle_parallel_copies
        self.driver_node = self.nodes[0]
        self.default_parallelism = len(self.nodes) * 2
        #: unified URL resolution — the SciDP runtime's registry when
        #: one is attached, else a fresh one over the HDFS facade
        if scidp is not None:
            self.registry = scidp.storage
        else:
            self.registry = StorageRegistry(default_scheme="hdfs")
            self.registry.register("hdfs", storage)
        #: spill target for memory_and_disk evictions: the PFS when a
        #: SciDP runtime provides one, else HDFS
        self.spill_base = join_url(
            scidp.pfs_scheme if scidp is not None else "hdfs",
            "/_sparklike/spill")
        self.block_store = BlockStore(self, capacity_bytes=cache_capacity)
        #: names of executors lost to :meth:`fail_node`
        self.lost_nodes: set[str] = set()
        #: id(ShuffleDependency) -> ShuffleState (map-output registry)
        self._shuffle_states: dict[int, object] = {}
        self._active_run = None
        self._rdd_seq = 0
        self._stage_seq = 0
        #: simple job metrics for tests/benches
        self.metrics: dict[str, Any] = {"stages": 0, "tasks": 0}
        #: one JobHistory per action, newest last
        self.histories: list = []
        self.last_history = None
        self._scheduler = DAGScheduler(self)

    def _next_rdd_id(self) -> int:
        self._rdd_seq += 1
        return self._rdd_seq

    # -- sources ------------------------------------------------------------
    def parallelize(self, data: list,
                    n_partitions: Optional[int] = None) -> RDD:
        if n_partitions is not None and n_partitions < 0:
            raise SparkLikeError("n_partitions must be >= 1")
        return _ParallelRDD(self, list(data),
                            n_partitions or self.default_parallelism)

    def text_file(self, path: str) -> RDD:
        return _TextFileRDD(self, path)

    def scidp_variable(self, pfs_path: str,
                       variables: Optional[list[str]] = None) -> RDD:
        """RDD over SciDP dummy blocks: scientific data on the PFS,
        processed directly — the §VII extension."""
        return _SciDPRDD(self, pfs_path, variables)

    # -- scheduling -----------------------------------------------------------
    def _stages_for(self, rdd: RDD) -> list[ShuffleDependency]:
        """Shuffle dependencies below ``rdd``, deepest first, each
        exactly once — diamond lineage (one dependency reachable along
        several paths, e.g. through ``union``) is deduplicated."""
        return dag.shuffle_deps(rdd)

    def _run_job(self, final: RDD) -> list:
        """Execute the lineage and collect at the driver (blocking)."""
        results = self._scheduler.run_action(final)
        out: list = []
        for index in sorted(results):
            out.extend(results[index][1])
        return out

    def _take(self, final: RDD, n: int) -> list:
        """Evaluate partitions incrementally: partition 0 first, then
        geometrically growing batches, stopping once ``n`` records are
        in hand — never running partitions the answer doesn't need."""
        if n == 0:
            return []
        out: list = []
        cursor = 0
        batch = 1
        while cursor < final.n_partitions and len(out) < n:
            indices = list(range(
                cursor, min(cursor + batch, final.n_partitions)))
            results = self._scheduler.run_action(
                final, indices=indices, label="take")
            for index in indices:
                out.extend(results[index][1])
            cursor += len(indices)
            batch *= 4
        return out[:n]

    # -- failure injection ---------------------------------------------------
    def fail_node(self, name: str) -> None:
        """Simulate losing executor ``name`` mid-run.

        Running tasks on the node are interrupted and requeued; its
        cached blocks and map outputs are invalidated, so later stages
        recompute exactly the lost partitions — transitively through the
        lineage — while reusing cached ancestors on surviving nodes.
        """
        if all(node.name != name for node in self.nodes):
            raise SparkLikeError(f"unknown node {name!r}")
        if name in self.lost_nodes:
            return
        self.lost_nodes.add(name)
        self.metrics["executors_lost"] = \
            self.metrics.get("executors_lost", 0) + 1
        registry = metrics_of(self.env)
        if registry is not None:
            registry.counter("sparklike.executors_lost").inc()
        self.block_store.invalidate_node(name)
        for state in self._shuffle_states.values():
            state.invalidate_node(name)
        if self._active_run is not None:
            self._active_run.on_node_lost(name)
