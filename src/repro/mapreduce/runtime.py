"""JobRunner: locality-aware slot scheduling and job orchestration."""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro import costs
from repro.io.write import WriteBehindFlusher
from repro.mapreduce.config import JobConf, MapReduceError
from repro.mapreduce.counters import Counters
from repro.mapreduce.input_format import InputSplit
from repro.mapreduce.task import (
    MapOutput,
    MapOutputFeed,
    MapTask,
    ReduceTask,
    TaskStats,
)
from repro.obs.history import FAILED, KILLED, SUCCEEDED, JobHistory, TaskAttempt
from repro.obs.metrics import metrics_of
from repro.obs.trace import tracer_of
from repro.sim import AllOf, CacheStats, ReadAheadCache, Resource

__all__ = ["JobResult", "JobRunner", "PendingSplits"]


class PendingSplits:
    """Host-indexed pending-split queue.

    Claim semantics are identical to the legacy list scan (the claim
    order decides DES event order, so it is pinned by a regression
    test): the *oldest* pending split with a replica on the claiming
    host wins, else the oldest pending split overall, and requeued
    splits go to the back. The difference is cost — per-host deques of
    insertion sequence numbers with lazy invalidation make the
    node-local lookup O(1) amortized instead of an O(pending) scan
    per slot claim.
    """

    def __init__(self, splits: Iterable[InputSplit] = ()):
        self._seq = 0
        #: insertion-ordered {seq: split}; dict order is arrival order
        self._by_seq: dict[int, InputSplit] = {}
        self._by_host: dict[str, deque] = defaultdict(deque)
        for split in splits:
            self.add(split)

    def __len__(self) -> int:
        return len(self._by_seq)

    def add(self, split: InputSplit) -> None:
        """Queue a split (new work or a retry requeue) at the back."""
        seq = self._seq
        self._seq += 1
        self._by_seq[seq] = split
        for host in split.locations:
            self._by_host[host].append(seq)

    def take(self, node_name: str) -> Optional[InputSplit]:
        """Claim the oldest node-local split, else the oldest overall."""
        queue = self._by_host.get(node_name)
        if queue:
            while queue:
                seq = queue.popleft()
                split = self._by_seq.pop(seq, None)
                if split is not None:  # stale seqs were claimed elsewhere
                    return split
        if self._by_seq:
            seq = next(iter(self._by_seq))
            return self._by_seq.pop(seq)
        return None


@dataclass
class JobResult:
    """Everything a finished job reports."""

    name: str
    start: float
    end: float
    counters: Counters
    task_stats: list[TaskStats] = field(default_factory=list)
    #: reducer output records per partition (also persisted when
    #: ``output_path`` is set)
    outputs: dict[int, list[tuple[Any, Any]]] = field(default_factory=dict)
    output_paths: list[str] = field(default_factory=list)
    #: map outputs when the job is map-only (no reducer)
    map_records: list[tuple[Any, Any]] = field(default_factory=list)
    #: per-attempt history (node, split, locality, spans, outcome)
    history: Optional[JobHistory] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def stats_for(self, kind: str) -> list[TaskStats]:
        return [s for s in self.task_stats if s.kind == kind]

    def phase_means(self, kind: str = "map") -> dict[str, float]:
        """Mean per-task seconds in each phase (Fig. 7 decomposition).

        Durations come from the tasks' phase spans; the legacy ``phases``
        dict is the fallback for stats built without span records.
        """
        stats = self.stats_for(kind)
        if not stats:
            return {}
        totals: dict[str, float] = {}
        for s in stats:
            per_task = s.phase_totals() if s.spans else s.phases
            for phase, seconds in per_task.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return {p: t / len(stats) for p, t in totals.items()}


class JobRunner:
    """Runs one job over a set of compute nodes against a storage facade.

    Scheduling: each node runs ``map_slots_per_node`` puller processes.
    A free slot takes the first pending split with a replica on its node
    (node-local), falling back to any split (remote read) — Hadoop's
    delay-free locality heuristic, enough to surface the Fig. 2 locality
    effect. Reducers start when all maps finish and are assigned
    round-robin, bounded by per-node reduce slots.
    """

    def __init__(self, env, nodes, storage, network, job: JobConf,
                 master_node=None):
        if not nodes:
            raise MapReduceError("JobRunner needs at least one node")
        self.env = env
        self.nodes = list(nodes)
        self.storage = storage
        self.network = network
        self.job = job
        self.master = master_node or self.nodes[0]
        self._task_seq = 0
        # Per-job cached latency-histogram handles: one registry lookup
        # at construction instead of a metrics_of + dict lookup per task.
        registry = metrics_of(env)
        if registry is not None:
            self._map_duration_obs = registry.latency(
                "task.map.duration").observe
            self._reduce_duration_obs = registry.latency(
                "task.reduce.duration").observe
        else:
            self._map_duration_obs = None
            self._reduce_duration_obs = None

    def _next_task_id(self, kind: str) -> str:
        self._task_seq += 1
        return f"{self.job.name}-{kind}-{self._task_seq:04d}"

    def _pick_split(self, pending: PendingSplits,
                    node_name: str) -> Optional[InputSplit]:
        return pending.take(node_name)

    def _speculation_candidate(self, node_name, tracker):
        """A straggling running split this node could back up, or None."""
        if not self.job.speculative or len(tracker["durations"]) < 1:
            return None
        mean = sum(tracker["durations"]) / len(tracker["durations"])
        threshold = self.job.speculative_slowdown * mean
        now = self.env.now
        for key, info in tracker["running"].items():
            if key in tracker["done"]:
                continue
            if node_name in info["nodes"]:
                continue  # don't back a task up on its own node
            if now - info["start"] > threshold:
                return key, info["split"]
        return None

    def _build_caches(self) -> tuple:
        """(shared CacheStats, {node name: ReadAheadCache}) for the job,
        or (None, {}) when prefetch and caching are both off."""
        job = self.job
        if not (job.prefetch or job.readahead_cache_bytes > 0):
            return None, {}
        capacity = job.readahead_cache_bytes or costs.READAHEAD_CACHE_BYTES
        stats = CacheStats(f"{job.name}.readahead")
        caches = {
            node.name: ReadAheadCache(
                self.env, capacity,
                name=f"{node.name}.readahead", stats=stats)
            for node in self.nodes
        }
        registry = metrics_of(self.env)
        if registry is not None:
            registry.watch_cache(stats)
        return stats, caches

    def _prefetch_split(self, prefetcher, split, node, cache, counters):
        """Advisory background fetch of a staged split. DES process.

        Failures are swallowed: the task's demand read will surface them
        with the normal retry machinery.
        """
        counters.increment("datapath", "prefetches_launched", 1)
        try:
            yield self.env.process(
                prefetcher(split, self.storage.client(node), cache, node))
        except Exception:
            counters.increment("datapath", "prefetches_failed", 1)

    def _map_worker(self, node, slot, pending, outputs, stats, counters,
                    attempts, tracker, history, cache=None, feed=None,
                    flusher=None):
        """One map slot's pull loop with retry + speculation. DES process.

        A failed attempt requeues the split (another slot — possibly on
        another node — will pick it up) until ``max_task_attempts`` is
        exhausted. With speculative execution on, a slot that finds no
        pending work re-launches a straggler instead of exiting; the
        first attempt to finish wins and the loser's output is dropped.

        With ``job.prefetch`` on, the slot double-buffers: before running
        a task it claims its *next* split and starts fetching that
        split's bytes into the node cache in the background, so the
        fetch overlaps the current task's compute. A slot only stages
        ahead while pending splits outnumber the job's map slots —
        otherwise staging would starve an idle slot of its only work
        and lengthen the map wave instead of shortening it.
        """
        client = self.storage.client(node)
        track = f"{node.name}.s{slot}"
        n_slots = len(self.nodes) * self.job.map_slots_per_node
        prefetcher = (getattr(self.job.input_format, "prefetch_split", None)
                      if self.job.prefetch and cache is not None else None)
        staged: Optional[InputSplit] = None
        while True:
            if staged is not None:
                split, staged = staged, None
                speculation = False
            else:
                split = self._pick_split(pending, node.name)
                speculation = False
            if split is None:
                candidate = self._speculation_candidate(node.name, tracker)
                if candidate is None:
                    return
                _key, split = candidate
                speculation = True
                counters.increment("job", "speculative_attempts", 1)
            key = (split.path, split.index)
            info = tracker["running"].setdefault(
                key, {"start": self.env.now, "nodes": set(),
                      "split": split})
            info["nodes"].add(node.name)

            if (prefetcher is not None and not speculation
                    and len(pending) > n_slots):
                staged = self._pick_split(pending, node.name)
                if staged is not None:
                    self.env.process(self._prefetch_split(
                        prefetcher, staged, node, cache, counters))

            task = MapTask(self.env, self.job, split, node, client,
                           self._next_task_id("m"), track=track,
                           cache=cache, flusher=flusher)
            attempt = history.record(TaskAttempt(
                attempt_id=task.task_id, kind="map", node=node.name,
                start=self.env.now,
                split=f"{split.path}#{split.index}",
                locality=task.locality, speculative=speculation))
            try:
                output, task_stats, task_counters = yield self.env.process(
                    task.run())
            except Exception as exc:
                attempt.end = self.env.now
                attempt.outcome = FAILED
                attempt.error = repr(exc)
                info["nodes"].discard(node.name)
                if speculation or key in tracker["done"]:
                    continue  # a failed backup never fails the job
                attempts[key] = attempts.get(key, 0) + 1
                counters.increment("job", "failed_map_attempts", 1)
                if attempts[key] >= self.job.max_task_attempts:
                    raise MapReduceError(
                        f"map task for {split.path}#{split.index} failed "
                        f"{attempts[key]} times; last error: {exc!r}"
                    ) from exc
                yield self.env.timeout(self.job.task_retry_backoff)
                pending.add(split)
                continue

            attempt.end = self.env.now
            attempt.spans = list(task_stats.spans)
            attempt.counters = task_counters.as_dict()
            if key in tracker["done"]:
                attempt.outcome = KILLED
                counters.increment("job", "speculative_losses", 1)
                continue  # another attempt won; drop this output
            attempt.outcome = SUCCEEDED
            tracker["done"].add(key)
            tracker["durations"].append(task_stats.duration)
            tracker["running"].pop(key, None)
            outputs.append(output)
            stats.append(task_stats)
            counters.merge(task_counters)
            observe = self._map_duration_obs
            if observe is None:  # registry attached after construction
                registry = metrics_of(self.env)
                if registry is not None:
                    observe = self._map_duration_obs = registry.latency(
                        "task.map.duration").observe
            if observe is not None:
                observe(task_stats.duration)
            if feed is not None:
                feed.commit(output)

    def _reduce_worker(self, partition, node, slots: Resource,
                       map_outputs, results, stats, counters, history,
                       feed=None, flusher=None):
        """One reduce task wrapped in its slot, with retry. DES process.

        A retried attempt re-reads the (append-only) map-output feed
        from the start, so overlap mode survives reduce failures.
        """
        req = slots.request()
        yield req
        try:
            client = self.storage.client(node)
            track = f"{node.name}.r{partition}"
            attempt = 0
            while True:
                attempt += 1
                task = ReduceTask(
                    self.env, self.job, partition, node, client,
                    map_outputs, self.network, self._next_task_id("r"),
                    track=track, feed=feed, flusher=flusher)
                record = history.record(TaskAttempt(
                    attempt_id=task.task_id, kind="reduce", node=node.name,
                    start=self.env.now, partition=partition))
                try:
                    records, output_path, task_stats, task_counters = \
                        yield self.env.process(task.run())
                except Exception as exc:
                    record.end = self.env.now
                    record.outcome = FAILED
                    record.error = repr(exc)
                    counters.increment("job", "failed_reduce_attempts", 1)
                    if attempt >= self.job.max_task_attempts:
                        raise MapReduceError(
                            f"reduce partition {partition} failed "
                            f"{attempt} times; last error: {exc!r}"
                        ) from exc
                    yield self.env.timeout(self.job.task_retry_backoff)
                    continue
                record.end = self.env.now
                record.outcome = SUCCEEDED
                record.spans = list(task_stats.spans)
                record.counters = task_counters.as_dict()
                break
            results[partition] = (records, output_path)
            stats.append(task_stats)
            counters.merge(task_counters)
            observe = self._reduce_duration_obs
            if observe is None:  # registry attached after construction
                registry = metrics_of(self.env)
                if registry is not None:
                    observe = self._reduce_duration_obs = registry.latency(
                        "task.reduce.duration").observe
            if observe is not None:
                observe(task_stats.duration)
        finally:
            slots.release(req)

    def run(self):
        """Execute the job. DES process returning :class:`JobResult`."""
        job = self.job
        job.validate()
        env = self.env
        start = env.now
        counters = Counters()
        stats: list[TaskStats] = []
        #: kept on the runner so post-mortems of failed jobs (which
        #: never produce a JobResult) can still read the attempt log
        history = self.history = JobHistory(job.name, start)
        tracer = tracer_of(env)

        with tracer.span("job", cat="job", track="job", job=job.name):
            master_client = self.storage.client(self.master)
            splits = yield env.process(
                job.input_format.get_splits(
                    job, self.storage, master_client))
            counters.increment("job", "splits", len(splits))

            pending = PendingSplits(splits)
            map_outputs: list[MapOutput] = []
            attempts: dict = {}
            tracker = {"running": {}, "done": set(), "durations": []}
            cache_stats, caches = self._build_caches()
            flusher = (WriteBehindFlusher(
                env, job.write_behind_max_inflight)
                if job.write_behind else None)

            results: dict[int, tuple[list, Optional[str]]] = {}
            feed: Optional[MapOutputFeed] = None
            reduce_barrier = None
            if job.reducer is not None and job.shuffle_overlap:
                # Event-driven copy phase: reducers launch with the job
                # and fetch map outputs as they commit to the feed. The
                # barrier condition is built *now* so a reducer failing
                # while we still wait on the map wave stays watched
                # (an unwatched process failure escapes env.step).
                feed = MapOutputFeed(env, expected=len(splits))
                reducers = self._launch_reducers(
                    map_outputs, results, stats, counters, history, feed,
                    flusher=flusher)
                reduce_barrier = AllOf(env, reducers)

            workers = []
            for node in self.nodes:
                for slot in range(job.map_slots_per_node):
                    workers.append(env.process(self._map_worker(
                        node, slot, pending, map_outputs, stats, counters,
                        attempts, tracker, history,
                        cache=caches.get(node.name), feed=feed,
                        flusher=flusher)))
            yield AllOf(env, workers)
            if cache_stats is not None:
                for name, value in sorted(cache_stats.as_dict().items()):
                    counters.increment("datapath", name, int(value))

            result = JobResult(
                name=job.name, start=start, end=env.now,
                counters=counters, task_stats=stats, history=history)

            if job.reducer is None:
                # Map-only job: expose the mappers' records directly.
                for output in map_outputs:
                    for partition in output.partitions:
                        result.map_records.extend(partition)
                yield from self._commit_writes(flusher, counters)
                result.end = env.now
                history.finish(result.end)
                self._publish_shuffle(counters)
                self._publish_turnaround(result)
                return result

            if reduce_barrier is None:
                reducers = self._launch_reducers(
                    map_outputs, results, stats, counters, history, None,
                    flusher=flusher)
                reduce_barrier = AllOf(env, reducers)
            yield reduce_barrier

            for partition, (records, output_path) in sorted(results.items()):
                result.outputs[partition] = records
                if output_path is not None:
                    result.output_paths.append(output_path)
            yield from self._commit_writes(flusher, counters)
            result.end = env.now
            result.task_stats = stats
            history.finish(result.end)
            self._publish_shuffle(counters)
            self._publish_turnaround(result)
            return result

    def _commit_writes(self, flusher, counters: Counters):
        """The write-behind commit barrier: nothing finishes — no job
        history, no ``JobResult`` — until every deferred flush has
        landed. DES generator; a no-op for synchronous jobs."""
        if flusher is None:
            return
        yield from flusher.drain()
        counters.increment(
            "datapath", "write_behind_flushes", flusher.submitted)
        counters.increment(
            "datapath", "write_behind_bytes", flusher.bytes_submitted)

    def _launch_reducers(self, map_outputs, results, stats, counters,
                         history, feed, flusher=None):
        """Create per-node reduce slots and one reduce worker per
        partition (round-robin over nodes); returns the processes."""
        env = self.env
        job = self.job
        slots = {
            node.name: Resource(env, job.reduce_slots_per_node,
                                f"{node.name}.reduce")
            for node in self.nodes
        }
        registry = metrics_of(env)
        if registry is not None:
            for node in self.nodes:
                registry.watch_slots(slots[node.name])
        reducers = []
        for partition in range(job.n_reducers):
            node = self.nodes[partition % len(self.nodes)]
            reducers.append(env.process(self._reduce_worker(
                partition, node, slots[node.name], map_outputs,
                results, stats, counters, history, feed=feed,
                flusher=flusher)))
        return reducers

    def _publish_turnaround(self, result: "JobResult") -> None:
        """Feed the finished job's turnaround time into the streaming
        ``job.turnaround`` percentile histogram (multi-job environments
        accumulate a p50/p99 job-latency distribution)."""
        registry = metrics_of(self.env)
        if registry is not None:
            registry.latency("job.turnaround").observe(result.duration)

    def _publish_shuffle(self, counters: Counters) -> None:
        """Mirror the job's shuffle counter group into the metrics
        registry (one ``shuffle.<job>.<name>`` counter each) so traces
        and reports can aggregate shuffle activity per job."""
        registry = metrics_of(self.env)
        if registry is not None and counters.group("shuffle"):
            counters.publish(registry, "shuffle", f"shuffle.{self.job.name}")
