"""The DAG scheduler: stage submission, partition states, executors,
shuffle registry, and lineage-based recovery.

Stages run as waves of executor workers (``nodes x executor_cores``,
locality-aware pick; default-knob timings are pinned at 1e-9 by
``tests/golden/sparklike.json``). Each stage tracks its
partitions through ``pending -> running -> done``; map outputs are
published through :class:`~repro.mapreduce.task.MapOutputFeed` keyed by
shuffle dependency, and reducers fetch them behind one barrier
by default or through a bounded
:class:`~repro.sim.FanoutWindow` when
``Context(shuffle_parallel_copies=k)`` is set.

Recovery (:meth:`Context.fail_node`) interrupts the lost node's running
tasks, requeues their partitions plus any completed work whose output
lived there, and invalidates its cache blocks and map outputs. Before
every retry wave the scheduler re-ensures upstream shuffle data, so
recomputation flows transitively down the lineage — but only for the
missing partition indices, reusing cached ancestors on surviving nodes.

Instrumentation rides :mod:`repro.obs`: per-action ``job`` spans,
per-task ``task.map``/``task.reduce`` spans with ``task.phase``
children on per-slot tracks (``report``/``critpath`` work out of the
box), job histories with one :class:`~repro.obs.TaskAttempt` per
launch, and counters/latency histograms when a metrics registry is
attached. All of it is pure Python against the simulated clock — it
never shifts timings.
"""

from __future__ import annotations

from typing import Optional

from repro.mapreduce.shuffle import estimate_size
from repro.mapreduce.task import MapOutput, MapOutputFeed
from repro.obs import JobHistory, TaskAttempt, metrics_of, tracer_of
from repro.sim import AllOf, FanoutWindow, Interrupt
from repro.sparklike import dag
from repro.sparklike.rdd import ShuffleDependency, SparkLikeError

__all__ = ["DAGScheduler", "ShuffleFetchFailed", "ShuffleState",
           "TaskContext"]

#: partition states tracked per stage run
PENDING, RUNNING, DONE = "pending", "running", "done"


class ShuffleFetchFailed(SparkLikeError):
    """A reduce task found its map outputs incomplete (a node died after
    the map stage ran). The stage requeues the task and the next wave
    regenerates the missing outputs first — the FetchFailed path."""


class ShuffleState:
    """Map-output registry for one shuffle dependency.

    Winning map tasks :meth:`commit` their partitioned output; the
    board is a :class:`MapOutputFeed` (fetchers iterate
    ``feed.outputs`` in commit order) plus an index so recovery can
    tell exactly which map partitions died with a node.
    """

    def __init__(self, env, dep: ShuffleDependency):
        self.dep = dep
        self.feed = MapOutputFeed(env, dep.parent.n_partitions)
        #: map partition index -> MapOutput
        self.by_index: dict[int, MapOutput] = {}

    @property
    def complete(self) -> bool:
        return len(self.by_index) >= self.dep.parent.n_partitions

    def commit(self, index: int, output: MapOutput) -> None:
        self.by_index[index] = output
        self.feed.commit(output)

    def missing(self) -> list[int]:
        return [i for i in range(self.dep.parent.n_partitions)
                if i not in self.by_index]

    def invalidate_node(self, name: str) -> list[int]:
        lost = [i for i, out in self.by_index.items()
                if out.node.name == name]
        for index in lost:
            del self.by_index[index]
        if lost:
            self.feed.outputs[:] = [out for out in self.feed.outputs
                                    if out.node.name != name]
        return lost


class _Phase:
    """Timed task phase: records a (name, start, end) span on the task
    and mirrors it as a ``task.phase`` tracer child span."""

    __slots__ = ("_task", "_name", "_start", "_handle")

    def __init__(self, task: "TaskContext", name: str):
        self._task = task
        self._name = name

    def __enter__(self) -> "_Phase":
        task = self._task
        self._start = task.ctx.env.now
        self._handle = task.tracer.span(
            self._name, cat="task.phase", track=task.track)
        self._handle.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        task = self._task
        task.spans.append((self._name, self._start, task.ctx.env.now))
        self._handle.__exit__(*exc)


class TaskContext:
    """What RDD compute chains see inside one executor task."""

    def __init__(self, ctx, node, stage_id: int, index: int,
                 track: Optional[str] = None):
        self.ctx = ctx
        self.node = node
        self.stage_id = stage_id
        self.index = index
        self.track = track or node.name
        self.tracer = tracer_of(ctx.env)
        #: (phase name, start, end) spans, filed into the job history
        self.spans: list[tuple[str, float, float]] = []
        self._charges: dict[str, float] = {}

    def charge(self, seconds: float, phase: str = "compute") -> None:
        if seconds < 0:
            raise SparkLikeError("charge must be >= 0")
        self._charges[phase] = self._charges.get(phase, 0.0) + seconds

    def take_charges(self) -> dict[str, float]:
        charges, self._charges = self._charges, {}
        return charges

    def phase(self, name: str) -> _Phase:
        """Time a task phase: ``with task.phase("spill"): yield ...``."""
        return _Phase(self, name)

    def fetch_shuffle(self, dep: ShuffleDependency, index: int):
        """Pull bucket ``index`` from every map output. DES process.

        Default (``shuffle_parallel_copies=0``): start every remote
        transfer and barrier on the set.
        With ``shuffle_parallel_copies=k``: at most ``k`` copies in
        flight through a bounded FanoutWindow."""
        ctx = self.ctx
        state = ctx._shuffle_states.get(id(dep))
        if state is None:
            raise SparkLikeError("shuffle outputs missing; stage not run")
        if not state.complete:
            raise ShuffleFetchFailed(
                f"shuffle dep@{id(dep):#x}: "
                f"{len(state.missing())} map outputs missing")
        runs = []
        copies = ctx.shuffle_parallel_copies
        if copies <= 0:
            transfers = []
            for out in state.feed.outputs:
                runs.append(out.partitions[index])
                size = out.sizes[index]
                if size and out.node is not self.node:
                    transfers.append(ctx.network.transfer(
                        out.node, self.node, size))
            if transfers:
                yield AllOf(ctx.env, transfers)
            return runs
        window = FanoutWindow(ctx.env, max_inflight=copies)
        for out in state.feed.outputs:
            runs.append(out.partitions[index])
            size = out.sizes[index]
            if size and out.node is not self.node:
                window.submit(
                    lambda src=out.node, n=size:
                    ctx.network.transfer(src, self.node, n))
        window.close()
        yield from window.drain()
        return runs


class _StageRun:
    """Partition-state tracking and executor loop for one stage."""

    def __init__(self, ctx, rdd, shuffle_into, stage_id: int, kind: str,
                 want: list[int], history: Optional[JobHistory]):
        self.ctx = ctx
        self.rdd = rdd
        self.shuffle_into = shuffle_into
        self.child = shuffle_into.child if shuffle_into is not None \
            else None
        self.stage_id = stage_id
        self.kind = kind
        self.history = history
        self.want = list(want)
        self.pending = list(want)
        #: index -> (node, worker process, attempt) while running
        self.running: dict[int, tuple] = {}
        self.done: set[int] = set()
        #: result stages: index -> (node, records)
        self.results: dict[int, tuple] = {}
        self.state = {index: PENDING for index in self.want}
        self._attempts: dict[int, int] = {}

    def remaining(self) -> list[int]:
        return [i for i in self.want if i not in self.done]

    def pick(self, node_name: str) -> Optional[int]:
        pending = self.pending
        for pos, index in enumerate(pending):
            if node_name in self.rdd.partition_locations(index):
                return pending.pop(pos)
        return pending.pop(0) if pending else None

    def on_node_lost(self, name: str) -> list[int]:
        """Interrupt the dead node's running tasks and requeue completed
        work whose output lived there. Returns the requeued done
        indices (interrupted tasks requeue themselves)."""
        ctx = self.ctx
        for _index, (node, proc, _attempt) in list(self.running.items()):
            if node.name == name and proc.is_alive:
                proc.interrupt("executor lost")
        requeued = []
        if self.shuffle_into is not None:
            state = ctx._shuffle_states.get(id(self.shuffle_into))
            for index in list(self.done):
                if state is None or index not in state.by_index:
                    self._requeue(index)
                    requeued.append(index)
        else:
            for index, (node, _records) in list(self.results.items()):
                if node.name == name:
                    del self.results[index]
                    self._requeue(index)
                    requeued.append(index)
        return requeued

    def _requeue(self, index: int) -> None:
        self.done.discard(index)
        if index not in self.pending:
            self.pending.append(index)
        self.state[index] = PENDING

    def executor(self, node, slot: int):
        """One executor core: pick -> run -> record, until drained."""
        ctx = self.ctx
        env = ctx.env
        tracer = tracer_of(env)
        registry = metrics_of(env)
        track = f"{node.name}.s{slot}"
        me = env.active_process
        while True:
            if node.name in ctx.lost_nodes:
                return
            index = self.pick(node.name)
            if index is None:
                return
            ctx.metrics["tasks"] += 1
            seq = self._attempts.get(index, 0)
            self._attempts[index] = seq + 1
            task = TaskContext(ctx, node, self.stage_id, index,
                               track=track)
            locations = self.rdd.partition_locations(index)
            attempt = TaskAttempt(
                attempt_id=f"s{self.stage_id}_p{index}_a{seq}",
                kind=self.kind, node=node.name, start=env.now,
                split=f"rdd{self.rdd._id}#{index}",
                partition=index if self.kind == "reduce" else None,
                locality=("node_local" if node.name in locations
                          else ("remote" if locations else "any")))
            if self.history is not None:
                self.history.record(attempt)
            self.running[index] = (node, me, attempt)
            self.state[index] = RUNNING
            started = env.now
            span = tracer.span(
                self.kind, cat=f"task.{self.kind}", track=track,
                task_id=attempt.attempt_id, node=node.name)
            try:
                with span:
                    yield env.timeout(ctx.task_startup)
                    with task.phase("read" if self.kind == "map"
                                    else "shuffle"):
                        records = yield env.process(
                            self.rdd.iterator(index, task))
                    for phase, seconds in sorted(
                            task.take_charges().items()):
                        with task.phase(phase):
                            yield env.timeout(seconds)
                    if self.shuffle_into is not None:
                        buckets = self.child.map_side_partition(records)
                        # Shuffle write: buffered to local disk.
                        size = estimate_size(records)
                        if size:
                            with task.phase("spill"):
                                yield node.disk.write(size)
                        ctx._shuffle_states[id(self.shuffle_into)].commit(
                            index, MapOutput(
                                task_id=attempt.attempt_id, node=node,
                                partitions=buckets,
                                sizes=[estimate_size(b)
                                       for b in buckets]))
                    else:
                        self.results[index] = (node, records)
            except (Interrupt, ShuffleFetchFailed) as exc:
                attempt.end = env.now
                if isinstance(exc, Interrupt):
                    attempt.outcome = "killed"
                    attempt.error = "executor lost"
                else:
                    attempt.outcome = "failed"
                    attempt.error = str(exc)
                    ctx.metrics["fetch_failures"] = \
                        ctx.metrics.get("fetch_failures", 0) + 1
                attempt.spans = list(task.spans)
                entry = self.running.get(index)
                if entry is not None and entry[1] is me:
                    del self.running[index]
                if index not in self.done:
                    self._requeue(index)
                ctx.metrics["tasks_retried"] = \
                    ctx.metrics.get("tasks_retried", 0) + 1
                if registry is not None:
                    registry.counter("sparklike.tasks_retried").inc()
                return
            attempt.end = env.now
            attempt.outcome = "succeeded"
            attempt.spans = list(task.spans)
            del self.running[index]
            self.done.add(index)
            self.state[index] = DONE
            if registry is not None:
                registry.counter("sparklike.tasks").inc()
                registry.latency("sparklike.task.duration").observe(
                    env.now - started)


class DAGScheduler:
    """Cuts actions into stages and drives them to completion."""

    def __init__(self, ctx):
        self.ctx = ctx
        self._job_seq = 0

    def run_action(self, final, indices: Optional[list[int]] = None,
                   label: str = "collect") -> dict[int, tuple]:
        """Run the lineage below ``final`` and the (possibly partial)
        result stage; blocking. Returns ``{index: (node, records)}``."""
        ctx = self.ctx
        env = ctx.env
        registry = metrics_of(env)
        if registry is not None:
            registry.watch_cache(ctx.block_store.stats, "sparklike.cache")
        self._job_seq += 1
        job_name = f"sparklike-{label}-{self._job_seq}"
        history = JobHistory(job_name, env.now)
        ctx.histories.append(history)
        ctx.last_history = history
        deps = ctx._stages_for(final)
        tracer = tracer_of(env)

        def driver():
            with tracer.span(job_name, cat="job", track="driver"):
                for dep in deps:
                    yield from self._ensure_shuffle(dep, history)
                results = yield env.process(self._run_stage(
                    final, indices=indices, history=history))
                # Results travel back to the driver.
                transfers = []
                for _index, (node, records) in results.items():
                    size = estimate_size(records)
                    if size:
                        transfers.append(ctx.network.transfer(
                            node, ctx.driver_node, size))
                if transfers:
                    yield AllOf(env, transfers)
            history.finish(env.now)
            return results

        proc = env.process(driver())
        env.run()
        return proc.value

    def _ensure_shuffle(self, dep: ShuffleDependency, history):
        """Materialise a shuffle dependency's missing map outputs (a
        complete one is a no-op — outputs are cached across actions and
        survive until a node loss invalidates them)."""
        ctx = self.ctx
        state = ctx._shuffle_states.get(id(dep))
        if state is None:
            state = ShuffleState(ctx.env, dep)
            ctx._shuffle_states[id(dep)] = state
            missing = list(range(dep.parent.n_partitions))
        else:
            missing = state.missing()
        if not missing:
            return
        yield ctx.env.process(self._run_stage(
            dep.parent, shuffle_into=dep, indices=missing,
            history=history))

    def _run_stage(self, rdd, shuffle_into=None,
                   indices: Optional[list[int]] = None, history=None):
        """Run one stage over ``indices`` (default: every partition) of
        ``rdd``. DES process. Retries in waves until every wanted
        partition is done, re-ensuring upstream shuffle data between
        waves after an executor loss."""
        ctx = self.ctx
        env = ctx.env
        ctx._stage_seq += 1
        stage_id = ctx._stage_seq
        ctx.metrics["stages"] += 1
        registry = metrics_of(env)
        if registry is not None:
            registry.counter("sparklike.stages").inc()
        kind = "reduce" if dag.consumes_shuffle(rdd) else "map"
        want = list(indices) if indices is not None \
            else list(range(rdd.n_partitions))
        run = _StageRun(ctx, rdd, shuffle_into, stage_id, kind, want,
                        history)
        started = env.now
        previous = ctx._active_run
        ctx._active_run = run
        tracer = tracer_of(env)
        try:
            with tracer.span(f"stage-{stage_id}", cat="stage",
                             track="driver", kind=kind,
                             partitions=len(want)):
                first_wave = True
                while run.remaining():
                    if not first_wave:
                        # Retry wave: lost map outputs upstream must be
                        # recomputed (transitively) before our tasks
                        # can fetch again.
                        for dep in dag.shuffle_deps(rdd):
                            yield from self._ensure_shuffle(dep, history)
                        ctx.metrics["retry_waves"] = \
                            ctx.metrics.get("retry_waves", 0) + 1
                    first_wave = False
                    live = [node for node in ctx.nodes
                            if node.name not in ctx.lost_nodes]
                    if not live:
                        raise SparkLikeError(
                            f"stage {stage_id}: all executors lost")
                    workers = []
                    for node in live:
                        for slot in range(ctx.executor_cores):
                            workers.append(env.process(
                                run.executor(node, slot)))
                    yield AllOf(env, workers)
        finally:
            ctx._active_run = previous
        if registry is not None:
            registry.latency("sparklike.stage.duration").observe(
                env.now - started)
        return run.results
