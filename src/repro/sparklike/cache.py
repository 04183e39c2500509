"""The ``cache()``/``persist()`` tier: byte-accounted executor memory
with LRU eviction and spill to shared storage.

One :class:`BlockStore` per context holds every persisted partition,
pinned to the node that computed it (the legacy single-copy model —
remote consumers pay one transfer). Capacity is per node and byte-
accounted through :func:`~repro.mapreduce.shuffle.estimate_size`; a
:class:`~repro.sim.CacheStats` feeds the obs metrics registry so
``report`` shows the cache rows next to the read-ahead caches.

Under memory pressure the least-recently-used block on the inserting
node is evicted. "memory"-level blocks are simply dropped (the lineage
recomputes them on demand); "memory_and_disk" blocks spill to shared
storage through the registry-resolved client — i.e. the
``repro.io.write`` planner path of the backing store — and later reads
pay a timed reload instead of a recompute. The default unbounded
capacity performs no simulated work at all, which keeps the default-knob
timings recorded in ``tests/golden/sparklike.json``.
"""

from __future__ import annotations

from typing import Optional

from repro.mapreduce.shuffle import estimate_size
from repro.sim import CacheStats

__all__ = ["MEMORY_AND_DISK", "MEMORY_ONLY", "BlockStore"]

#: storage levels accepted by :meth:`repro.sparklike.rdd.RDD.persist`
MEMORY_ONLY = "memory"
MEMORY_AND_DISK = "memory_and_disk"


class BlockStore:
    """Cluster-wide view of persisted RDD partitions."""

    def __init__(self, ctx, capacity_bytes: Optional[int] = None):
        self.ctx = ctx
        #: per-node byte budget; None = unbounded (legacy behavior)
        self.capacity = capacity_bytes
        self.stats = CacheStats("sparklike.cache")
        #: key -> [node, records, nbytes, level]; dict order is LRU
        #: (reinserted on every hit)
        self._entries: dict[tuple, list] = {}
        self._node_bytes: dict[str, int] = {}
        #: key -> (spill url, nbytes, records) — blocks that live on
        #: shared storage after a memory_and_disk eviction
        self._spilled: dict[tuple, tuple] = {}

    # -- memory tier ------------------------------------------------------
    def get(self, key: tuple):
        """``(node, records)`` on a memory hit, else None (counts the
        miss). Pure Python: a hit performs no simulated work."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        # LRU touch: move to the back of the insertion order
        del self._entries[key]
        self._entries[key] = entry
        self.stats.hits += 1
        self.stats.bytes_from_cache += entry[2]
        return entry[0], entry[1]

    def nbytes(self, key: tuple) -> int:
        entry = self._entries.get(key)
        return entry[2] if entry is not None else 0

    def put(self, key: tuple, task, records: list, level: str):
        """Insert one computed partition; DES generator (only yields
        when an eviction spills). Call with ``yield from``."""
        ctx = self.ctx
        node = task.node
        if node.name in ctx.lost_nodes:
            return  # orphaned task on an executor that was lost mid-run
        old = self._entries.pop(key, None)
        if old is not None:
            self._node_bytes[old[0].name] -= old[2]
        nbytes = estimate_size(records)
        self._entries[key] = [node, records, nbytes, level]
        self._node_bytes[node.name] = \
            self._node_bytes.get(node.name, 0) + nbytes
        self.stats.bytes_inserted += nbytes
        if self.capacity is None:
            return
        while self._node_bytes.get(node.name, 0) > self.capacity:
            victim = next((k for k, e in self._entries.items()
                           if e[0].name == node.name), None)
            if victim is None:  # pragma: no cover - accounting drift
                break
            vnode, vrecords, vbytes, vlevel = self._entries.pop(victim)
            self._node_bytes[vnode.name] -= vbytes
            self.stats.evictions += 1
            ctx.metrics["cache_evictions"] = \
                ctx.metrics.get("cache_evictions", 0) + 1
            if vlevel == MEMORY_AND_DISK and victim not in self._spilled:
                yield from self._spill(victim, vnode, vrecords, vbytes,
                                       task)

    # -- disk tier --------------------------------------------------------
    def _spill(self, key: tuple, node, records: list, nbytes: int, task):
        """Write an evicted block to shared storage (timed)."""
        ctx = self.ctx
        url = f"{ctx.spill_base}/rdd{key[0]}_p{key[1]}"
        client, path = ctx.registry.open(url, node)
        with task.phase("spill"):
            yield ctx.env.process(client.write(path, bytes(nbytes)))
        self._spilled[key] = (url, nbytes, records)
        ctx.metrics["cache_spills"] = \
            ctx.metrics.get("cache_spills", 0) + 1

    def has_spilled(self, key: tuple) -> bool:
        return key in self._spilled

    def load_spilled(self, key: tuple, task):
        """Reload a spilled block (timed read). DES generator."""
        ctx = self.ctx
        url, _nbytes, records = self._spilled[key]
        client, path = ctx.registry.open(url, task.node)
        with task.phase("read"):
            yield ctx.env.process(client.read(path))
        ctx.metrics["cache_disk_hits"] = \
            ctx.metrics.get("cache_disk_hits", 0) + 1
        return list(records)

    # -- invalidation -----------------------------------------------------
    def invalidate_node(self, name: str) -> list[tuple]:
        """Drop every memory block pinned to a lost executor; spilled
        copies survive (they live on shared storage)."""
        lost = [k for k, e in self._entries.items() if e[0].name == name]
        for key in lost:
            _node, _records, nbytes, _level = self._entries.pop(key)
            self._node_bytes[name] = \
                self._node_bytes.get(name, 0) - nbytes
        return lost

    def drop_rdd(self, rdd_id: int) -> None:
        for key in [k for k in self._entries if k[0] == rdd_id]:
            node, _records, nbytes, _level = self._entries.pop(key)
            self._node_bytes[node.name] -= nbytes
        for key in [k for k in self._spilled if k[0] == rdd_id]:
            del self._spilled[key]
