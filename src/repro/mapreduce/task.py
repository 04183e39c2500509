"""Map and reduce task processes.

Tasks are hybrids: user functions run for real (bytes in, bytes out), and
the task charges simulated seconds for startup, I/O (through storage
clients and devices) and compute (through ``ctx.charge``). Per-task phase
spans feed the Fig. 7 decomposition.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.mapreduce.config import JobConf, MapReduceError
from repro.mapreduce.counters import Counters
from repro.mapreduce.input_format import InputSplit
from repro.mapreduce.shuffle import (
    estimate_records,
    group_sorted,
    merge_sorted_runs,
    partition_run,
    sort_run,
)
from repro.obs.metrics import metrics_of
from repro.obs.trace import tracer_of
from repro.sim import Event, FanoutWindow

__all__ = ["MapOutput", "MapOutputFeed", "MapTask", "ReduceTask",
           "TaskContext", "TaskStats"]


@dataclass
class TaskStats:
    """Timing record for one task attempt."""

    task_id: str
    kind: str                 # "map" | "reduce"
    node: str
    start: float
    end: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)
    #: (phase name, start, end) — the authoritative timing record;
    #: ``phases`` keeps the per-phase totals derived from it.
    spans: list[tuple[str, float, float]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def phase_totals(self) -> dict[str, float]:
        """Seconds per phase summed from spans."""
        totals: dict[str, float] = {}
        for name, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals


class _Phase:
    """Context manager for one timed task phase.

    Records a (name, start, end) span on the context and mirrors the
    phase as a tracer child span when tracing is enabled.
    """

    __slots__ = ("_ctx", "_name", "_start", "_handle")

    def __init__(self, ctx: "TaskContext", name: str):
        self._ctx = ctx
        self._name = name

    def __enter__(self) -> "_Phase":
        ctx = self._ctx
        self._start = ctx.env.now
        self._handle = ctx.tracer.span(
            self._name, cat="task.phase", track=ctx.track)
        self._handle.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        ctx = self._ctx
        end = ctx.env.now
        ctx.spans.append((self._name, self._start, end))
        self._handle.__exit__(*exc)


class TaskContext:
    """What user code sees inside a task."""

    def __init__(self, env, node, job: JobConf, task_id: str,
                 storage_client=None, track: Optional[str] = None,
                 cache=None):
        self.env = env
        self.node = node
        self.job = job
        self.task_id = task_id
        self.client = storage_client
        #: node read-ahead cache (set when the job enables prefetch or
        #: caching); input formats pick it up for their readers
        self.cache = cache
        self.counters = Counters()
        #: (phase name, start, end) spans recorded by :meth:`phase`
        self.spans: list[tuple[str, float, float]] = []
        #: trace swimlane this task's spans land on
        self.track = track or node.name
        self.tracer = tracer_of(env)
        self._output: list[tuple[Any, Any]] = []
        self._charges: dict[str, float] = {}
        self._io_actions: list[tuple[str, str, Any]] = []

    def phase(self, name: str) -> _Phase:
        """Time a task phase: ``with ctx.phase("read"): yield ...``."""
        return _Phase(self, name)

    def emit(self, key: Any, value: Any) -> None:
        """Produce one output record."""
        self._output.append((key, value))

    def defer_io(self, op: str, path: str, payload: Any = None) -> None:
        """Queue a timed storage operation ("write" with bytes payload, or
        "read" with a byte count) that the task drains through its
        storage client after the map loop — how user-level I/O (e.g.
        TestDFSIO, rhdfs puts) gets charged from inside map functions."""
        if op not in ("read", "write"):
            raise ValueError(f"unknown io op {op!r}")
        self._io_actions.append((op, path, payload))

    def take_io_actions(self) -> list[tuple[str, str, Any]]:
        actions = self._io_actions
        self._io_actions = []
        return actions

    def charge(self, seconds: float, phase: str = "compute") -> None:
        """Account ``seconds`` of simulated compute under ``phase``."""
        if seconds < 0:
            raise ValueError("charge must be >= 0")
        self._charges[phase] = self._charges.get(phase, 0.0) + seconds

    def take_output(self) -> list[tuple[Any, Any]]:
        out = self._output
        self._output = []
        return out

    def take_charges(self) -> dict[str, float]:
        charges = self._charges
        self._charges = {}
        return charges


@dataclass
class MapOutput:
    """One map task's partitioned, sorted output held on its node."""

    task_id: str
    node: Any                       # cluster Node holding the spill
    partitions: list[list[tuple[Any, Any]]]
    sizes: list[int]                # estimated bytes per partition


class MapOutputFeed:
    """Event-driven map-output board (the JobTracker's completed-map
    list): winning map attempts :meth:`commit` their outputs as they
    finish, and overlapped reducers consume :attr:`outputs` as it
    grows instead of waiting for the map barrier.

    Only attempt *winners* commit, so speculation never double-feeds a
    reducer; ``expected`` is the split count, letting consumers know
    when the copy phase can close.
    """

    def __init__(self, env, expected: int):
        self.env = env
        self.expected = expected
        self.outputs: list[MapOutput] = []
        self._arrival = Event(env)

    def commit(self, output: MapOutput) -> None:
        """Publish one finished map's output and wake the waiters."""
        self.outputs.append(output)
        arrival, self._arrival = self._arrival, Event(self.env)
        arrival.succeed(output)

    def wait(self) -> Event:
        """Event triggered at the next commit (rotates per commit)."""
        return self._arrival


def _ordered(job: JobConf, task_id: str, sort, records):
    """``sort(records)``; keys Python cannot order become a one-line
    engine error instead of a bare ``TypeError`` out of the DES."""
    try:
        return sort(records)
    except TypeError as exc:
        raise MapReduceError(
            f"job {job.name!r} task {task_id}: shuffle keys cannot be "
            f"ordered: {exc}") from None


class MapTask:
    """Executes one split: read → map → partition/sort(/combine) → spill."""

    def __init__(self, env, job: JobConf, split: InputSplit, node,
                 storage_client, task_id: str, track: Optional[str] = None,
                 cache=None, flusher=None):
        self.env = env
        self.job = job
        self.split = split
        self.node = node
        self.client = storage_client
        self.task_id = task_id
        self.track = track
        self.cache = cache
        #: job-level WriteBehindFlusher when write_behind is on
        self.flusher = flusher

    @property
    def locality(self) -> str:
        """Where this attempt's split lives relative to its node."""
        if not self.split.locations:
            return "any"          # dummy blocks carry no locations
        if self.node.name in self.split.locations:
            return "node_local"
        return "remote"

    def run(self):
        """DES process returning (MapOutput, TaskStats, Counters)."""
        env = self.env
        job = self.job
        stats = TaskStats(self.task_id, "map", self.node.name, env.now)
        ctx = TaskContext(env, self.node, job, self.task_id, self.client,
                          track=self.track, cache=self.cache)
        task_span = ctx.tracer.span(
            "map", cat="task.map", track=ctx.track, task_id=self.task_id,
            node=self.node.name,
            split=f"{self.split.path}#{self.split.index}",
            locality=self.locality)
        with task_span:
            yield env.timeout(job.task_startup)

            with ctx.phase("read"):
                records = yield env.process(
                    job.input_format.read_records(
                        self.split, self.client, ctx))

            for key, value in records:
                job.mapper(ctx, key, value)
            ctx.counters.increment("map", "records_mapped", len(records))

            for op, path, payload in ctx.take_io_actions():
                with ctx.phase("user_io"):
                    if op == "write":
                        if self.flusher is not None:
                            # Write-behind: hand off (pure Python) and
                            # overlap the flush with this task's compute;
                            # the job drains before committing.
                            self.flusher.submit(self.client, path, payload)
                            ctx.counters.increment(
                                "io", "write_behind_writes")
                        else:
                            yield env.process(
                                self.client.write(path, payload))
                        ctx.counters.increment(
                            "io", "bytes_written", len(payload))
                    else:
                        data = yield env.process(self.client.read(path))
                        wanted = payload if payload is not None else len(data)
                        if len(data) < wanted:
                            raise ValueError(
                                f"deferred read of {path!r}: "
                                f"{len(data)} < {wanted}")
                        ctx.counters.increment("io", "bytes_read", len(data))

            charges = ctx.take_charges()
            overhead = len(records) * job.record_overhead
            if overhead:
                charges["framework"] = (
                    charges.get("framework", 0.0) + overhead)
            for phase, seconds in sorted(charges.items()):
                with ctx.phase(phase):
                    yield env.timeout(seconds)

            partitions = partition_run(
                ctx.take_output(), max(1, job.n_reducers))
            for p, run in enumerate(partitions):
                partitions[p] = _ordered(job, self.task_id, sort_run, run)
                if job.combiner is not None:
                    partitions[p] = self._combine(ctx, partitions[p])
            sizes = [estimate_records(part) for part in partitions]

            spill = sum(sizes)
            if spill and job.reducer is not None:
                with ctx.phase("spill"):
                    if job.diskless_spill:
                        # No local disks: the spill crosses to the storage
                        # system under test (e.g. the Lustre connector).
                        if self.flusher is not None:
                            self.flusher.submit(
                                self.client, f"/_spill/{self.task_id}",
                                bytes(spill))
                            ctx.counters.increment(
                                "io", "write_behind_writes")
                        else:
                            yield env.process(self.client.write(
                                f"/_spill/{self.task_id}", bytes(spill)))
                    else:
                        yield self.node.disk.write(spill)

        stats.end = env.now
        stats.spans = list(ctx.spans)
        stats.phases = stats.phase_totals()
        return (MapOutput(self.task_id, self.node, partitions, sizes),
                stats, ctx.counters)

    def _combine(self, ctx: TaskContext,
                 run: list[tuple[Any, Any]]) -> list[tuple[Any, Any]]:
        combined = TaskContext(
            self.env, self.node, self.job, self.task_id, self.client)
        for key, values in group_sorted(run):
            self.job.combiner(combined, key, values)
        ctx.counters.merge(combined.counters)
        # Combiner compute is charged with the map's other charges.
        for phase, seconds in combined.take_charges().items():
            ctx.charge(seconds, phase)
        out = _ordered(
            self.job, self.task_id, sort_run, combined.take_output())
        ctx.counters.increment("shuffle", "combine_input_records", len(run))
        ctx.counters.increment("shuffle", "combine_output_records", len(out))
        return out


class ReduceTask:
    """Fetch one partition from every map, merge, reduce, write output.

    Two copy-phase strategies share the rest of the task:

    * **barrier** (all shuffle knobs at defaults, no feed): the
      pre-overlap shape — one fetcher per map output, all in flight at
      once, one ``AllOf`` barrier. Its timings are pinned by
      ``tests/golden/mapreduce.json``.
    * **overlapped** (a :class:`MapOutputFeed` and/or
      ``shuffle_parallel_copies``/``shuffle_fetch_attempts`` set): fetch
      factories go through a :class:`FanoutWindow` — submitted as map
      outputs commit, at most ``shuffle_parallel_copies`` in flight,
      each with per-source retry/backoff.

    Fetched runs are lists, so the merge is one stable sort over their
    concatenation (:func:`~repro.mapreduce.shuffle.merge_sorted_runs`);
    ``shuffle_merge_factor`` bounds its width with intermediate spill
    passes charged to the local disk, Hadoop's ``io.sort.factor``.
    """

    def __init__(self, env, job: JobConf, partition: int, node,
                 storage_client, map_outputs: list[MapOutput],
                 network, task_id: str, track: Optional[str] = None,
                 feed: Optional[MapOutputFeed] = None, flusher=None):
        self.env = env
        self.job = job
        self.partition = partition
        self.node = node
        self.client = storage_client
        self.map_outputs = map_outputs
        self.network = network
        self.task_id = task_id
        self.track = track
        self.feed = feed
        #: job-level WriteBehindFlusher when write_behind is on
        self.flusher = flusher

    #: shuffle servlet round trip per fetch
    FETCH_RPC_LATENCY = 0.0005

    def _fetch(self, output: MapOutput, ctx: TaskContext):
        """Pull one map's partition slice to this node. DES process.

        Spills were written moments ago and the paper's nodes have 128 GB
        of RAM, so fetches are served from the mapper's page cache: one
        servlet round trip plus the network transfer (no disk seek).
        """
        size = output.sizes[self.partition]
        if size == 0:
            return output.partitions[self.partition]
        ctx.counters.increment("shuffle", "fetches")
        fetch_started = self.env.now
        yield self.env.timeout(self.FETCH_RPC_LATENCY)
        yield self.network.transfer(
            output.node, self.node, size, tag="shuffle")
        ctx.counters.increment("shuffle", "bytes", size)
        registry = metrics_of(self.env)
        if registry is not None:
            registry.latency("shuffle.fetch.latency").observe(
                self.env.now - fetch_started)
        return output.partitions[self.partition]

    def _fetch_with_retry(self, output: MapOutput, ctx: TaskContext):
        """One map output through ``shuffle_fetch_attempts`` tries, with
        the task-attempt backoff between them. DES generator."""
        attempts = self.job.shuffle_fetch_attempts
        for attempt in range(attempts):
            try:
                result = yield from self._fetch(output, ctx)
                return result
            except Exception:
                if attempt + 1 >= attempts:
                    raise
                ctx.counters.increment("shuffle", "fetch_retries")
                yield self.env.timeout(
                    self.job.task_retry_backoff * (attempt + 1))

    def _copy_phase(self, ctx: TaskContext):
        """Overlapped copy: submit a fetch per committed map output —
        as they arrive when a feed is present — through a bounded
        window. DES generator returning the fetched runs."""
        window = FanoutWindow(self.env, self.job.shuffle_parallel_copies)
        if self.feed is None:
            for output in self.map_outputs:
                window.submit(
                    lambda mo=output: self._fetch_with_retry(mo, ctx))
        else:
            seen = 0
            while True:
                outputs = self.feed.outputs
                while seen < len(outputs):
                    output = outputs[seen]
                    seen += 1
                    window.submit(
                        lambda mo=output: self._fetch_with_retry(mo, ctx))
                if seen >= self.feed.expected:
                    break
                yield self.feed.wait()
        window.close()
        runs = yield from window.drain()
        return runs

    def _merge_spills(self, ctx: TaskContext, runs: list):
        """Bound the final merge width to ``shuffle_merge_factor`` by
        merging excess runs into intermediate on-disk spill runs first
        (Hadoop's multi-pass merge). DES generator returning the
        narrowed run list."""
        job = self.job
        factor = job.shuffle_merge_factor
        runs = list(runs)
        with ctx.phase("merge"):
            while len(runs) > factor:
                batch, runs = runs[:factor], runs[factor:]
                merged = _ordered(
                    job, self.task_id, merge_sorted_runs, batch)
                spill = estimate_records(merged)
                if spill:
                    if job.diskless_spill:
                        yield self.env.process(self.client.write(
                            f"/_spill/{self.task_id}", bytes(spill)))
                    else:
                        yield self.node.disk.write(spill)
                ctx.counters.increment("shuffle", "merge_passes")
                ctx.counters.increment("shuffle", "spilled_bytes", spill)
                runs.append(merged)
        return runs

    def run(self):
        """DES process returning (records, TaskStats, Counters)."""
        env = self.env
        job = self.job
        stats = TaskStats(self.task_id, "reduce", self.node.name, env.now)
        ctx = TaskContext(env, self.node, job, self.task_id, self.client,
                          track=self.track)
        task_span = ctx.tracer.span(
            "reduce", cat="task.reduce", track=ctx.track,
            task_id=self.task_id, node=self.node.name,
            partition=self.partition)
        with task_span:
            yield env.timeout(job.task_startup)

            overlapped = (self.feed is not None
                          or job.shuffle_parallel_copies > 0
                          or job.shuffle_fetch_attempts > 1)
            if overlapped:
                with ctx.phase("copy"):
                    runs = yield from self._copy_phase(ctx)
            else:
                with ctx.phase("shuffle"):
                    runs = []
                    fetchers = [
                        env.process(self._fetch(mo, ctx))
                        for mo in self.map_outputs
                    ]
                    from repro.sim import AllOf
                    if fetchers:
                        done = yield AllOf(env, fetchers)
                        runs = [done[proc] for proc in fetchers]

            runs = [run for run in runs if run]
            if job.shuffle_merge_factor >= 2 \
                    and len(runs) > job.shuffle_merge_factor:
                runs = yield from self._merge_spills(ctx, runs)
            merged = _ordered(job, self.task_id, merge_sorted_runs, runs)

            n_groups = 0
            for key, values in group_sorted(merged):
                n_groups += 1
                job.reducer(ctx, key, values)
            ctx.counters.increment("reduce", "groups", n_groups)

            for phase, seconds in sorted(ctx.take_charges().items()):
                with ctx.phase(phase):
                    yield env.timeout(seconds)

            records = ctx.take_output()
            output_path: Optional[str] = None
            if job.output_path is not None:
                output_path = (
                    f"{job.output_path}/part-r-{self.partition:05d}")
                payload = pickle.dumps(records)
                with ctx.phase("write"):
                    if self.flusher is not None:
                        # Write-behind: the flusher performs the same
                        # idempotent replace-write asynchronously and the
                        # job drains before committing, so exactly-once
                        # holds under speculation and retry.
                        self.flusher.submit(
                            self.client, output_path, payload)
                        ctx.counters.increment("io", "write_behind_writes")
                    else:
                        # Idempotent commit: a retried attempt replaces
                        # whatever a failed predecessor left behind.
                        if (yield env.process(
                                self.client.exists(output_path))):
                            yield env.process(
                                self.client.delete(output_path))
                        yield env.process(
                            self.client.write(output_path, payload))
                ctx.counters.increment("io", "bytes_written", len(payload))

        stats.end = env.now
        stats.spans = list(ctx.spans)
        stats.phases = stats.phase_totals()
        return records, output_path, stats, ctx.counters
