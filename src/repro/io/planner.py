"""The one read planner: chopping, coalescing, fan-out, cache joining.

Every storage backend routes its data path through this module:
granularity chopping (the PFS Reader), per-OST run coalescing (the PFS
client), RPC-size chopping (the HDFS connector) and bounded fan-out live
here once, so a new backend is a thin adapter and the datapath counters
stay comparable across schemes.

Timing discipline
-----------------
The perf-smoke golden numbers pin the simulated physics to 1e-9, so the
planner keeps each backend's fan-out shape *exactly*:

- :meth:`ReadPlanner.fetch_range` — the PFS Reader / connector shape:
  one piece is fetched inline, a serial window (``max_inflight == 1``)
  loops inline, anything else rides :func:`bounded_fanout`.
- :meth:`ReadPlanner.fan_out_runs` — the PFS client shape: a window
  strictly between 0 and the run count bounds the fan-out, otherwise
  every run is issued up front and awaited with one ``AllOf``.
- :meth:`ReadPlanner.fan_out_blocks` — the DFS client shape: windowed
  only for ``max_inflight != 1`` over multiple blocks, otherwise a
  serial process-per-block loop (stock ``DFSInputStream`` streaming).

Changing any of these disciplines changes event creation order and is a
behaviour change, not a refactor;
``tests/io/test_planner_equivalence.py`` holds them to the completion
times recorded in ``tests/golden/io.json``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.io.plan import Extent, ReadPlan
from repro.obs.metrics import metrics_of
from repro.sim.cache import ReadAheadCache
from repro.sim.engine import AllOf
from repro.sim.pipeline import bounded_fanout

__all__ = ["ReadPlanner", "chop_range", "coalesce_extents"]


def chop_range(offset: int, length: int,
               granularity: Optional[int]) -> list[tuple[int, int]]:
    """(pos, nbytes) request pieces for one byte range.

    ``granularity=None`` keeps the range whole (SciDP's single
    whole-block request); otherwise pieces are at most ``granularity``
    bytes (Hadoop's 64 KiB streaming, the connector's RPC size).
    """
    if granularity is None:
        return [(offset, length)]
    pieces = []
    pos = offset
    end = offset + length
    while pos < end:
        piece = min(granularity, end - pos)
        pieces.append((pos, piece))
        pos += piece
    return pieces


def coalesce_extents(extents: list[Extent]) -> dict[int, list[Extent]]:
    """Group extents by device and merge object-adjacent runs into one
    bulk request.

    Real clients build one bulk RPC per device per contiguous object
    range; this is what makes large aligned reads cheap (one seek) and
    scattered small reads expensive (a seek each) — the asymmetry behind
    Fig. 6.
    """
    per_device: dict[int, list[Extent]] = {}
    for ext in sorted(extents, key=lambda e: (e.ost_index, e.object_offset)):
        runs = per_device.setdefault(ext.ost_index, [])
        if runs:
            last = runs[-1]
            if last.object_offset + last.length == ext.object_offset:
                runs[-1] = Extent(
                    ost_index=last.ost_index,
                    object_offset=last.object_offset,
                    file_offset=last.file_offset,
                    length=last.length + ext.length)
                continue
        runs.append(ext)
    return per_device


class ReadPlanner:
    """Plans and drives one backend's read requests.

    One planner per client instance, tagged with the backend ``scheme``
    (``hdfs``, ``pfs``, ``scidp``, ``connector``) so the metrics
    registry can report per-scheme read rows uniformly.

    ``fetch`` callbacks passed to the drive methods are thunks
    ``fetch(pos, nbytes)`` returning a DES generator that performs the
    backend's actual timed transfer.
    """

    def __init__(self, env, scheme: str = "",
                 granularity: Optional[int] = None,
                 request_overhead: float = 0.0,
                 max_inflight: int = 1,
                 cache: Optional[ReadAheadCache] = None):
        if granularity is not None and granularity < 1:
            raise ValueError("granularity must be >= 1")
        if max_inflight < 0:
            raise ValueError("max_inflight must be >= 0 (0 = unbounded)")
        self.env = env
        self.scheme = scheme
        self.granularity = granularity
        #: per-request software overhead charged before each piece fetch
        self.request_overhead = request_overhead
        #: in-flight request window; 1 = serial, 0 = unbounded
        self.max_inflight = max_inflight
        #: optional node-level read-ahead cache of stored byte ranges
        self.cache = cache

    # -- planning ----------------------------------------------------------
    def plan(self, ranges: Sequence[tuple[int, int]]) -> ReadPlan:
        """Chop logical ``(offset, length)`` ranges into request pieces."""
        pieces: list[tuple[int, int]] = []
        for offset, length in ranges:
            pieces.extend(chop_range(offset, length, self.granularity))
        return ReadPlan(pieces=tuple(pieces), granularity=self.granularity)

    def plan_runs(self, extents: Sequence[Extent]) -> dict[int, list[Extent]]:
        """Coalesce mapped extents into per-device bulk-request runs."""
        return coalesce_extents(list(extents))

    # -- accounting --------------------------------------------------------
    def account(self, nbytes: int, requests: int = 1,
                cache_hits: int = 0) -> None:
        """Roll a completed read into the per-scheme metrics counters.

        Pure-Python counters: no simulated events, so instrumentation
        never shifts timings.
        """
        registry = metrics_of(self.env)
        if registry is None:
            return
        prefix = f"io.read.{self.scheme or 'unknown'}"
        if nbytes:
            registry.counter(f"{prefix}.bytes").inc(nbytes)
        if requests:
            registry.counter(f"{prefix}.requests").inc(requests)
        if cache_hits:
            registry.counter(f"{prefix}.cache_hits").inc(cache_hits)

    def account_skipped(self, nbytes: int, chunks: int = 1) -> None:
        """Roll bytes a scan *proved it need not read* (projection or
        zone-map pruning) into ``io.read.<scheme>.skipped_bytes`` /
        ``.skipped_chunks`` — the denominators behind the planner's
        bytes-scanned reduction claims."""
        registry = metrics_of(self.env)
        if registry is None:
            return
        prefix = f"io.read.{self.scheme or 'unknown'}"
        if nbytes:
            registry.counter(f"{prefix}.skipped_bytes").inc(nbytes)
        if chunks:
            registry.counter(f"{prefix}.skipped_chunks").inc(chunks)

    # -- piece fetch with cache join-in-flight ----------------------------
    def fetch_piece(self, path: str, pos: int, nbytes: int,
                    fetch: Callable, prefetching: bool = False):
        """Fetch one request-sized piece, through the cache when present.

        DES (sub)process — drive with ``yield from`` or ``env.process``.
        The cache protocol (hit → bytes; join an in-flight fetch; else
        reserve, fetch, fill) is the join-in-flight semantics the map
        runtime's double-buffered prefetch relies on.
        """
        cache = self.cache
        if cache is not None:
            key = (path, pos, nbytes)
            data = cache.get(key)
            if data is not None:
                self.account(len(data), requests=0, cache_hits=1)
                return data
            waiter = cache.join(key)
            if waiter is not None:
                data = yield waiter
                self.account(len(data), requests=0, cache_hits=1)
                return data
            reservation = cache.reserve(key)
            try:
                yield self.env.timeout(self.request_overhead)
                data = yield self.env.process(fetch(pos, nbytes))
            except BaseException as exc:
                reservation.abort(exc)
                raise
            reservation.fill(data, prefetched=prefetching)
            self.account(len(data))
            return data
        yield self.env.timeout(self.request_overhead)
        data = yield self.env.process(fetch(pos, nbytes))
        self.account(len(data))
        return data

    # -- range / piece drivers --------------------------------------------
    def fetch_range(self, path: str, offset: int, length: int,
                    fetch: Callable,
                    max_inflight: Optional[int] = None):
        """Fetch one byte range, whole or chopped. DES process.

        The reader discipline: a single piece is fetched inline; a
        serial window loops inline (the exact pre-pipelining event
        sequence); otherwise pieces share one bounded in-flight window.
        """
        window = self.max_inflight if max_inflight is None else max_inflight
        pieces = chop_range(offset, length, self.granularity)
        if len(pieces) == 1:
            data = yield from self.fetch_piece(path, *pieces[0], fetch)
            return data
        if window == 1:
            parts = []
            for pos, n in pieces:
                parts.append(
                    (yield from self.fetch_piece(path, pos, n, fetch)))
        else:
            parts = yield from bounded_fanout(
                self.env,
                [lambda pos=pos, n=n: self.fetch_piece(path, pos, n, fetch)
                 for pos, n in pieces],
                window)
        return b"".join(parts)

    def fetch_pieces(self, path: str, pieces: Sequence[tuple[int, int]],
                     fetch: Callable, prefetching: bool = False,
                     max_inflight: Optional[int] = None):
        """Fetch pre-chopped pieces under one shared window. DES process.

        The prefetch/hyperslab discipline: strictly serial loops stay
        inline, everything else rides one bounded fan-out across the
        whole piece list. Returns the parts in input order.
        """
        window = self.max_inflight if max_inflight is None else max_inflight
        if window == 1 or len(pieces) == 1:
            parts = []
            for pos, n in pieces:
                parts.append((yield from self.fetch_piece(
                    path, pos, n, fetch, prefetching=prefetching)))
            return parts
        parts = yield from bounded_fanout(
            self.env,
            [lambda pos=pos, n=n: self.fetch_piece(
                path, pos, n, fetch, prefetching=prefetching)
             for pos, n in pieces],
            window)
        return parts

    # -- fan-out disciplines ----------------------------------------------
    def fan_out_runs(self, factories: Sequence[Callable],
                     max_inflight: Optional[int] = None):
        """Drive coalesced-run fetchers, PFS-client style. DES process.

        ``0 < window < n`` bounds the fan-out; anything else issues all
        runs up front and awaits them with a single ``AllOf`` (the
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
        """Drive whole-block fetchers, DFS-client style. DES process.

        ``max_inflight != 1`` over multiple blocks keeps that many block
        reads in flight; the default streams serially (one process per
        block), the stock ``DFSInputStream`` behaviour.
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
