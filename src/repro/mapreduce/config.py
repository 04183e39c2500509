"""Job configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["JobConf", "MapReduceError"]


class MapReduceError(Exception):
    """Engine-level errors (bad configuration, missing input...)."""


@dataclass
class JobConf:
    """Everything a job needs.

    ``mapper(ctx, key, value)`` and ``reducer(ctx, key, values)`` are real
    Python callables executed functionally; they account simulated compute
    through ``ctx.charge``. ``input_format`` decides how input paths become
    splits and records — swapping it for ``SciDPInputFormat`` is exactly
    the paper's integration point (§IV-E.1 modifies ``FileInputFormat``).
    """

    name: str
    mapper: Callable
    input_format: Any = None
    reducer: Optional[Callable] = None
    combiner: Optional[Callable] = None
    n_reducers: int = 1
    input_paths: list[str] = field(default_factory=list)
    output_path: Optional[str] = None
    map_slots_per_node: int = 8
    reduce_slots_per_node: int = 2
    #: per-record framework overhead charged by map tasks, seconds
    record_overhead: float = 0.0
    #: per-task JVM-ish startup cost, seconds
    task_startup: float = 0.05
    #: attempts per task before the job fails (Hadoop default: 4)
    max_task_attempts: int = 4
    #: delay before a failed attempt is rescheduled, seconds
    task_retry_backoff: float = 1.0
    #: diskless deployments (e.g. Seagate's "Diskless Hadoop on Lustre")
    #: have no local disks: map spills are written through the storage
    #: client instead of the node's disk
    diskless_spill: bool = False
    #: Hadoop-style speculative execution: when no pending work remains,
    #: a free slot re-launches a straggling map task on another node;
    #: the first finisher wins
    speculative: bool = False
    #: a running task is a straggler once its elapsed time exceeds this
    #: multiple of the mean completed-task duration
    speculative_slowdown: float = 1.5
    #: double-buffered block prefetch: while a map task computes, the
    #: slot's next split is already being fetched into its node's
    #: read-ahead cache (requires an input format with prefetch_split)
    prefetch: bool = False
    #: per-node read-ahead cache capacity, bytes; 0 with prefetch on
    #: falls back to costs.READAHEAD_CACHE_BYTES. Setting it without
    #: prefetch still caches demand reads (overlapping hyperslabs).
    readahead_cache_bytes: int = 0
    #: event-driven copy phase: reducers launch with the job and fetch
    #: each map output as it commits, instead of waiting for the map
    #: barrier (Hadoop's slowstart at 0). Off = legacy serial barrier.
    shuffle_overlap: bool = False
    #: concurrent fetch streams per reducer (Hadoop's
    #: mapreduce.reduce.shuffle.parallelcopies). 0 = legacy unbounded
    #: fan-out: every fetch in flight at once.
    shuffle_parallel_copies: int = 0
    #: attempts per map-output fetch before the reduce attempt fails;
    #: retries back off by task_retry_backoff like task attempts do
    shuffle_fetch_attempts: int = 1
    #: reduce-side merge width (Hadoop's io.sort.factor): more runs
    #: than this are merged to intermediate spills on local disk first.
    #: 0 = one unbounded merge pass.
    shuffle_merge_factor: int = 0
    #: write-behind output commit: task output writes (reduce parts,
    #: mapper ctx.write files, diskless spills) are handed to an async
    #: flusher that overlaps the next split's compute; the job holds a
    #: hard barrier at commit (drain before history/JobResult), and
    #: per-path flushes stay idempotent-exactly-once under speculation
    #: and retry. Off = legacy synchronous writes.
    write_behind: bool = False
    #: concurrent write-behind flushes in flight; 0 = unbounded
    write_behind_max_inflight: int = 0
    params: dict[str, Any] = field(default_factory=dict)

    def add_input_path(self, path: str) -> "JobConf":
        """`FileInputFormat.addInputPath` equivalent."""
        self.input_paths.append(path)
        return self

    def validate(self) -> None:
        if not callable(self.mapper):
            raise MapReduceError("mapper must be callable")
        if self.reducer is not None and not callable(self.reducer):
            raise MapReduceError("reducer must be callable")
        if self.n_reducers < 0:
            raise MapReduceError("n_reducers must be >= 0")
        if self.reducer is not None and self.n_reducers == 0:
            raise MapReduceError("reducer given but n_reducers == 0")
        if self.input_format is None:
            raise MapReduceError("input_format is required")
        if not self.input_paths:
            raise MapReduceError("no input paths")
        if self.map_slots_per_node < 1 or self.reduce_slots_per_node < 1:
            raise MapReduceError("slot counts must be >= 1")
        if self.max_task_attempts < 1:
            raise MapReduceError("max_task_attempts must be >= 1")
        if self.readahead_cache_bytes < 0:
            raise MapReduceError("readahead_cache_bytes must be >= 0")
        if self.shuffle_parallel_copies < 0:
            raise MapReduceError("shuffle_parallel_copies must be >= 0")
        if self.shuffle_fetch_attempts < 1:
            raise MapReduceError("shuffle_fetch_attempts must be >= 1")
        if self.shuffle_merge_factor < 0 or self.shuffle_merge_factor == 1:
            raise MapReduceError(
                "shuffle_merge_factor must be 0 (unbounded) or >= 2")
        if self.write_behind_max_inflight < 0:
            raise MapReduceError(
                "write_behind_max_inflight must be >= 0 (0 = unbounded)")
