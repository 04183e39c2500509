"""RDD lineage: lazy transformations, shuffle boundaries, actions.

Transformations only record lineage (narrow parents or a
:class:`ShuffleDependency`); actions hand the final RDD to the
context's DAG scheduler (:mod:`repro.sparklike.scheduler`), which cuts
the graph into stages and tracks partition states. Narrow chains can be
fused into a single per-partition pass (``Context(fusion=True)``), and
``cache()``/``persist()`` route through the byte-accounted block store
(:mod:`repro.sparklike.cache`) with optional spill to shared storage.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.mapreduce.shuffle import (
    group_sorted,
    merge_sorted_runs,
    partition_run,
    sort_run,
)
from repro.sparklike.cache import MEMORY_AND_DISK, MEMORY_ONLY

__all__ = ["RDD", "ShuffleDependency", "SparkLikeError"]


class SparkLikeError(Exception):
    """Engine-level errors."""


class ShuffleDependency:
    """A wide dependency: the child stage needs a hash repartition of the
    parent's output."""

    def __init__(self, parent: "RDD", n_partitions: int):
        self.parent = parent
        self.n_partitions = n_partitions
        #: the _ShuffledRDD that owns the partitioning logic (set by it)
        self.child: Optional["RDD"] = None


class RDD:
    """A lazy, partitioned dataset.

    Subclasses implement :meth:`compute` — a DES process yielding the
    records of one partition — and :meth:`partition_locations` for
    locality. ``parents`` lists every narrow parent (more than one for
    :meth:`union`); ``parent`` keeps the single-parent shorthand.
    """

    def __init__(self, ctx, n_partitions: int,
                 shuffle_dep: Optional[ShuffleDependency] = None,
                 parent: Optional["RDD"] = None,
                 parents: Optional[list["RDD"]] = None):
        self.ctx = ctx
        self.n_partitions = n_partitions
        self.shuffle_dep = shuffle_dep
        if parents is None:
            parents = [parent] if parent is not None else []
        self.parents = parents
        self.parent = parents[0] if parents else None
        self._id = ctx._next_rdd_id()
        #: None (not persisted) or a storage level from sparklike.cache
        self.storage_level: Optional[str] = None

    # -- to be provided by subclasses -------------------------------------
    def compute(self, index: int, task):
        """DES process returning the partition's record list."""
        raise NotImplementedError  # pragma: no cover

    # -- caching -----------------------------------------------------------
    def cache(self) -> "RDD":
        """Persist computed partitions in executor memory: later actions
        reuse them instead of recomputing, paying only a transfer when
        the partition lives on another node."""
        return self.persist(MEMORY_ONLY)

    def persist(self, level: str = MEMORY_ONLY) -> "RDD":
        """Persist at ``level`` ("memory" or "memory_and_disk"). With a
        bounded ``Context(cache_capacity=...)``, memory-only blocks are
        dropped under pressure (recomputed on demand) while
        memory-and-disk blocks spill to shared storage through the write
        planner and reload from there."""
        if level not in (MEMORY_ONLY, MEMORY_AND_DISK):
            raise SparkLikeError(f"unknown storage level {level!r}")
        self.storage_level = level
        return self

    def unpersist(self) -> "RDD":
        self.storage_level = None
        self.ctx.block_store.drop_rdd(self._id)
        return self

    def iterator(self, index: int, task):
        """Cache-aware access to one partition. DES process.

        Every consumer (child RDDs, the stage runner) goes through here,
        so caching an intermediate RDD short-circuits the whole lineage
        below it.
        """
        ctx = self.ctx
        if self.storage_level is not None:
            store = ctx.block_store
            key = (self._id, index)
            hit = store.get(key)
            if hit is not None:
                node, records = hit
                ctx.metrics["cache_hits"] = \
                    ctx.metrics.get("cache_hits", 0) + 1
                if node is not task.node:
                    size = store.nbytes(key)
                    if size:
                        yield ctx.network.transfer(node, task.node, size)
                return records
            if store.has_spilled(key):
                ctx.metrics["cache_hits"] = \
                    ctx.metrics.get("cache_hits", 0) + 1
                records = yield from store.load_spilled(key, task)
                return records
        records = yield ctx.env.process(self.compute(index, task))
        if self.storage_level is not None:
            yield from ctx.block_store.put(
                (self._id, index), task, records, self.storage_level)
        return records

    def partition_locations(self, index: int) -> list[str]:
        """Preferred executor nodes for this partition."""
        if self.parent is not None:
            return self.parent.partition_locations(index)
        return []

    # -- narrow transformations --------------------------------------------
    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return _MapPartitionsRDD(
            self, lambda task, records: [fn(r) for r in records])

    def flat_map(self, fn: Callable[[Any], Any]) -> "RDD":
        return _MapPartitionsRDD(
            self, lambda task, records: [o for r in records for o in fn(r)])

    def filter(self, predicate: Callable[[Any], bool]) -> "RDD":
        return _MapPartitionsRDD(
            self, lambda task, records: [r for r in records
                                         if predicate(r)])

    def map_partitions(self,
                       fn: Callable[[Any, list], list]) -> "RDD":
        """``fn(task, records) -> records``. ``task`` exposes
        ``charge(seconds, phase)`` for simulated compute accounting."""
        return _MapPartitionsRDD(self, fn)

    def key_by(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda r: (fn(r), r))

    def map_values(self, fn: Callable[[Any], Any]) -> "RDD":
        return self.map(lambda kv: (kv[0], fn(kv[1])))

    def union(self, other: "RDD") -> "RDD":
        """Concatenate two RDDs partition-wise (narrow, no shuffle).

        This is the multi-parent lineage op: an RDD reachable through
        both sides of a union forms diamond lineage, which the stage
        walk deduplicates."""
        if other.ctx is not self.ctx:
            raise SparkLikeError("union across contexts")
        return _UnionRDD(self.ctx, [self, other])

    # -- wide transformations ----------------------------------------------
    def reduce_by_key(self, fn: Callable[[Any, Any], Any],
                      n_partitions: Optional[int] = None) -> "RDD":
        """Combine values per key with ``fn`` (map-side combining, then a
        shuffle, then a final merge — like Spark's reduceByKey)."""
        return _ShuffledRDD(self, n_partitions, combiner=fn)

    def group_by_key(self, n_partitions: Optional[int] = None) -> "RDD":
        return _ShuffledRDD(self, n_partitions, combiner=None)

    # -- actions -------------------------------------------------------------
    def collect(self) -> list:
        """Run the job and gather every record at the driver."""
        return self.ctx._run_job(self)

    def count(self) -> int:
        counted = _MapPartitionsRDD(
            self, lambda task, records: [len(records)])
        return sum(counted.collect())

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        partials = _MapPartitionsRDD(
            self, lambda task, records: (
                [_fold(records, fn)] if records else []))
        values = partials.collect()
        if not values:
            raise SparkLikeError("reduce of an empty RDD")
        return _fold(values, fn)

    def take(self, n: int) -> list:
        """First ``n`` records in partition order, evaluating partitions
        incrementally: one partition first, then geometrically growing
        batches, stopping as soon as ``n`` records are gathered."""
        if n < 0:
            raise SparkLikeError("take(n) needs n >= 0")
        return self.ctx._take(self, n)

    def first(self) -> Any:
        out = self.take(1)
        if not out:
            raise SparkLikeError("first() of an empty RDD")
        return out[0]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<{type(self).__name__} id={self._id} "
                f"partitions={self.n_partitions}>")


def _fold(values, fn):
    it = iter(values)
    acc = next(it)
    for value in it:
        acc = fn(acc, value)
    return acc


class _MapPartitionsRDD(RDD):
    """Narrow transformation, pipelined inside the parent's task.

    With fusion off (the default) each operator runs in its own nested
    task process and charges the full per-record cost. With
    ``Context(fusion=True)`` the whole narrow chain down to the nearest
    boundary (source, shuffle, cached RDD, or union) runs as one pass: interior operators stream records without
    materialising an intermediate buffer, so they charge only the
    compute share of the per-record cost; the final operator still pays
    full price for materialising the stage's output.
    """

    def __init__(self, parent: RDD, fn: Callable):
        super().__init__(parent.ctx, parent.n_partitions, parent=parent)
        self.fn = fn

    def compute(self, index: int, task):
        ctx = self.ctx
        if not ctx.fusion:
            records = yield ctx.env.process(
                self.parent.iterator(index, task))
            out = self.fn(task, records)
            task.charge(len(records) * ctx.record_cost, "compute")
            return out
        # Fused pass: gather the narrow chain ending here.
        fns = [self.fn]
        base = self.parent
        while (type(base) is _MapPartitionsRDD
               and base.storage_level is None):
            fns.append(base.fn)
            base = base.parent
        fns.reverse()
        records = yield ctx.env.process(base.iterator(index, task))
        cost = ctx.record_cost
        last = len(fns) - 1
        for pos, fn in enumerate(fns):
            out = fn(task, records)
            share = 1.0 if pos == last else ctx.fused_interior_share
            task.charge(len(records) * cost * share, "compute")
            records = out
        return records


class _UnionRDD(RDD):
    """Partition-wise concatenation of several parents (narrow)."""

    def __init__(self, ctx, parents: list[RDD]):
        total = sum(p.n_partitions for p in parents)
        super().__init__(ctx, total, parents=list(parents))
        #: partition index -> (parent, index within parent)
        self._slots = [
            (p, i) for p in parents for i in range(p.n_partitions)
        ]

    def partition_locations(self, index: int) -> list[str]:
        parent, sub = self._slots[index]
        return parent.partition_locations(sub)

    def compute(self, index: int, task):
        parent, sub = self._slots[index]
        records = yield self.ctx.env.process(parent.iterator(sub, task))
        return list(records)


class _ShuffledRDD(RDD):
    """Wide transformation: introduces a stage boundary."""

    def __init__(self, parent: RDD, n_partitions: Optional[int],
                 combiner: Optional[Callable]):
        n = n_partitions or parent.ctx.default_parallelism
        super().__init__(parent.ctx, n,
                         shuffle_dep=ShuffleDependency(parent, n))
        self.shuffle_dep.child = self
        self.combiner = combiner

    def partition_locations(self, index: int) -> list[str]:
        return []  # reducer-side partitions have no locality

    def _ordered(self, sort, records) -> list:
        try:
            return sort(records)
        except TypeError as exc:
            raise SparkLikeError(
                f"shuffle into RDD {self._id}: keys cannot be ordered: "
                f"{exc}") from None

    def map_side_partition(self, records: list) -> list[list]:
        """Hash-partition (and optionally combine) one map partition."""
        buckets = partition_run(records, self.n_partitions)
        if self.combiner is not None:
            for i, bucket in enumerate(buckets):
                buckets[i] = [
                    (key, _fold(values, self.combiner))
                    for key, values in group_sorted(
                        self._ordered(sort_run, bucket))]
        return buckets

    def merge(self, runs: list[list]) -> list:
        groups = group_sorted(self._ordered(merge_sorted_runs, runs))
        if self.combiner is None:
            return list(groups)
        return [(key, _fold(values, self.combiner))
                for key, values in groups]

    def compute(self, index: int, task):
        """Fetch this partition's shuffle bucket from every map output."""
        runs = yield self.ctx.env.process(
            task.fetch_shuffle(self.shuffle_dep, index))
        out = self.merge(runs)
        task.charge(sum(len(r) for r in runs) * self.ctx.record_cost,
                    "merge")
        return out
