"""The one write planner: chunking, coalescing, fan-out, write-behind.

The write-side counterpart of :mod:`repro.io.planner`. Every storage backend
routes its write path through this module: per-device coalescing where
the *payload* is contiguous, chunk-granularity chopping, the bounded
fan-out windows (reusing :mod:`repro.sim.pipeline`), and the per-scheme
``io.write.*`` accounting that feeds the "writes by scheme" report
table next to the read rows.

Timing discipline
-----------------
The perf-smoke golden numbers pin the simulated physics to 1e-9, so the
planner keeps each backend's fan-out shape *exactly* at default
knobs:

- :meth:`WritePlanner.plan_extents` — with no chunk size configured the
  mapped extents pass through untouched (one RPC per stripe extent; a
  run merged in object space is discontiguous in the payload unless it
  is *also* payload-adjacent, which is what
  :func:`coalesce_payload_runs` checks before merging).
- :meth:`WritePlanner.fan_out_stripes` — the PFS client shape: a window
  strictly between 0 and the push count bounds the fan-out, otherwise
  every push is issued up front and awaited with one ``AllOf``.
- :meth:`WritePlanner.fan_out_blocks` — the DFS client shape: windowed
  only for ``max_inflight != 1`` over multiple blocks, otherwise a
  serial process-per-block loop (the stock output-stream behaviour).

Changing any of these disciplines changes event creation order and is a
behaviour change, not a refactor;
``tests/io/test_write_equivalence.py`` holds them to the completion
times recorded in ``tests/golden/io.json``.

:class:`WriteBehindFlusher` is the task-commit half: map/reduce output
call sites hand their payload off (pure Python, no simulated time) and
overlap the next split's compute with the flush; per-path submissions
are serialized and each performs the idempotent replace-write, so
speculation and task retry keep exactly-once stored state. The job
barrier is :meth:`WriteBehindFlusher.drain`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.io.plan import Extent, WritePlan
from repro.obs.metrics import metrics_of
from repro.sim.engine import AllOf, Event
from repro.sim.pipeline import FanoutWindow, bounded_fanout

__all__ = [
    "WriteBehindFlusher",
    "WritePlanner",
    "chop_extents",
    "coalesce_payload_runs",
]


def coalesce_payload_runs(extents: Sequence[Extent]) -> list[Extent]:
    """Merge extent runs that are contiguous on the device *and* in the
    payload, preserving payload order.

    The write-side constraint the read coalescer does not have: merging
    two object-adjacent stripes whose file offsets interleave with other
    devices would make one push carry discontiguous payload bytes, so a
    run only grows while both offsets advance in lockstep.
    """
    runs: list[Extent] = []
    for ext in extents:
        if runs:
            last = runs[-1]
            if (last.ost_index == ext.ost_index
                    and last.object_offset + last.length == ext.object_offset
                    and last.file_offset + last.length == ext.file_offset):
                runs[-1] = Extent(
                    ost_index=last.ost_index,
                    object_offset=last.object_offset,
                    file_offset=last.file_offset,
                    length=last.length + ext.length)
                continue
        runs.append(ext)
    return runs


def chop_extents(extents: Sequence[Extent],
                 chunk: Optional[int]) -> list[Extent]:
    """Split extents into at most ``chunk``-byte push requests.

    ``chunk=None`` keeps each extent whole (a single push per
    stripe extent); otherwise each extent becomes ceil(len/chunk)
    pieces, in payload order.
    """
    if chunk is None:
        return list(extents)
    pieces: list[Extent] = []
    for ext in extents:
        pos = 0
        while pos < ext.length:
            n = min(chunk, ext.length - pos)
            pieces.append(Extent(
                ost_index=ext.ost_index,
                object_offset=ext.object_offset + pos,
                file_offset=ext.file_offset + pos,
                length=n))
            pos += n
    return pieces


class WritePlanner:
    """Plans and drives one backend's write requests.

    One planner per client instance, tagged with the backend ``scheme``
    (``hdfs``, ``pfs``, ``connector``) so the metrics registry can
    report per-scheme write rows uniformly, mirroring
    :class:`~repro.io.planner.ReadPlanner`.
    """

    def __init__(self, env, scheme: str = "",
                 chunk: Optional[int] = None,
                 max_inflight: int = 0):
        if chunk is not None and chunk < 1:
            raise ValueError("chunk must be >= 1")
        if max_inflight < 0:
            raise ValueError("max_inflight must be >= 0 (0 = unbounded)")
        self.env = env
        self.scheme = scheme
        #: push-request granularity; None = whole-extent pushes
        self.chunk = chunk
        #: in-flight push window; 0 = unbounded
        self.max_inflight = max_inflight

    # -- planning ----------------------------------------------------------
    def plan_extents(self, extents: Sequence[Extent]) -> WritePlan:
        """Build the push plan for mapped extents.

        With no chunk size the extents pass through untouched — one
        push per stripe extent. With a chunk size,
        payload-contiguous runs are merged first (so a large aligned
        write is not artificially fragmented at stripe boundaries
        smaller than the chunk) and then chopped to the granularity.
        """
        if self.chunk is None:
            return WritePlan(extents=tuple(extents), chunk=None)
        runs = coalesce_payload_runs(extents)
        return WritePlan(extents=tuple(chop_extents(runs, self.chunk)),
                         chunk=self.chunk)

    # -- accounting --------------------------------------------------------
    def account(self, nbytes: int, requests: int = 1) -> None:
        """Roll a completed write into the per-scheme metrics counters.

        Pure-Python counters: no simulated events, so instrumentation
        never shifts timings.
        """
        registry = metrics_of(self.env)
        if registry is None:
            return
        prefix = f"io.write.{self.scheme or 'unknown'}"
        if nbytes:
            registry.counter(f"{prefix}.bytes").inc(nbytes)
        if requests:
            registry.counter(f"{prefix}.requests").inc(requests)

    # -- fan-out disciplines ----------------------------------------------
    def fan_out_stripes(self, factories: Sequence[Callable],
                        max_inflight: Optional[int] = None):
        """Drive stripe-push factories, PFS-client style. DES process.

        ``0 < window < n`` bounds the fan-out; anything else issues all
        pushes up front and awaits them with a single ``AllOf`` (the
        historical unbounded shape). Results come back in input order.
        """
        window = self.max_inflight if max_inflight is None else max_inflight
        factories = list(factories)
        if 0 < window < len(factories):
            results = yield from bounded_fanout(self.env, factories, window)
            return results
        procs = [self.env.process(factory()) for factory in factories]
        if not procs:
            return []
        done = yield AllOf(self.env, procs)
        return [done[proc] for proc in procs]

    def fan_out_blocks(self, factories: Sequence[Callable],
                       max_inflight: Optional[int] = None):
        """Drive whole-block push factories, DFS-client style. DES
        process.

        ``max_inflight != 1`` over multiple blocks keeps that many block
        pipelines in flight; the default streams serially (one process
        per block), the stock output-stream behaviour.
        """
        window = self.max_inflight if max_inflight is None else max_inflight
        factories = list(factories)
        if window != 1 and len(factories) > 1:
            results = yield from bounded_fanout(self.env, factories, window)
            return results
        results = []
        for factory in factories:
            results.append((yield self.env.process(factory())))
        return results


class WriteBehindFlusher:
    """Asynchronous output commit: tasks hand payloads off and keep
    computing while a background window flushes them.

    Exactly-once rules, preserved under speculation and task retry:

    - submissions to the *same path* are serialized in submission order
      (chained events), so a retried attempt's payload deterministically
      lands last;
    - every flush performs the idempotent replace-write
      (exists → delete → write), so a speculative duplicate or a failed
      predecessor's leftover never turns into a "file exists" error or
      a double-counted output;
    - :meth:`drain` is the hard barrier at job commit: nothing finishes
      (no job history, no ``JobResult``) until every flush has landed,
      and a flush failure is re-raised there, failing the job like a
      synchronous write would have.
    """

    def __init__(self, env, max_inflight: int = 0):
        self.env = env
        self._window = FanoutWindow(env, max_inflight)
        #: tail event per path: the previous submission's completion
        self._tails: dict[str, Event] = {}
        #: pure-Python stats for counters/tests
        self.submitted = 0
        self.bytes_submitted = 0

    def submit(self, client, path: str, payload: bytes) -> Event:
        """Queue one flush through ``client`` (the submitting node's
        storage client, so the transfer physics match a synchronous
        write from that node). Pure Python — returns immediately with
        the event that fires when this payload has landed.
        """
        prev = self._tails.get(path)
        done = Event(self.env)
        self._tails[path] = done
        self.submitted += 1
        self.bytes_submitted += len(payload)
        submitted_at = self.env.now
        self._window.submit(
            lambda: self._flush(client, path, payload, prev, done,
                                submitted_at))
        return done

    def _flush(self, client, path, payload, prev, done, submitted_at):
        try:
            if prev is not None:
                yield prev
            if (yield self.env.process(client.exists(path))):
                yield self.env.process(client.delete(path))
            yield self.env.process(client.write(path, payload))
            registry = metrics_of(self.env)
            if registry is not None:
                # submit-to-landed time: how far the write-behind queue
                # let this payload lag behind the task that produced it
                registry.latency("write_behind.flush.latency").observe(
                    self.env.now - submitted_at)
        finally:
            if not done.triggered:
                done.succeed()

    def drain(self):
        """DES generator: the commit barrier. Waits for every submitted
        flush; re-raises the first flush failure."""
        self._window.close()
        yield from self._window.drain()
