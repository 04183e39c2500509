"""Span tracer on the simulated clock, with Chrome/JSONL exporters.

A :class:`Tracer` is attached to a DES environment
(:func:`attach_tracer`); instrumented code resolves it through
:func:`tracer_of`, which returns the shared :data:`NULL_TRACER` when
tracing is off — ``tracer_of(env).span(...)`` then returns one shared
no-op handle, so the disabled hot path allocates nothing.

Timestamps are simulated seconds converted to microseconds (the Chrome
``trace_event`` unit); there is no wall time anywhere, so two identical
runs export byte-identical traces.

Spans carry a *track* name instead of a raw thread id; the exporter
assigns integer ``tid``\\ s in sorted track order and emits
``thread_name`` metadata so Perfetto shows one labelled swimlane per
track (``hadoop3.s2``, ``hadoop3.pfs``, ...). Multi-run sessions
(:class:`TraceSession`) map each simulated run to its own ``pid``.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.obs.columnar import ColumnarLog

__all__ = [
    "NULL_TRACER",
    "Span",
    "TraceSession",
    "Tracer",
    "attach_tracer",
    "chrome_events",
    "load_trace",
    "tracer_of",
    "write_chrome_trace",
    "write_jsonl_trace",
]


class Span:
    """One finished (or in-flight) named interval on a track."""

    __slots__ = ("name", "cat", "track", "start", "end", "args")

    def __init__(self, name: str, cat: str, track: str, start: float,
                 args: Optional[dict] = None):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = start
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.name!r} [{self.start:.6f}, {self.end:.6f}] "
                f"track={self.track!r}>")


class _SpanHandle:
    """Reusable context manager that records one span on exit.

    Handles are pooled on the owning tracer (a freelist), so steady-state
    span recording allocates no objects at all: entering a span pops a
    handle, exiting extends the columnar buffer with three floats and
    pushes the handle back. ``_active`` marks handles currently inside a
    ``with`` block — that is what lets the exporter synthesise
    still-in-flight spans at dump time instead of dropping them.
    """

    __slots__ = ("_tracer", "_kid", "_start", "_args", "_active")

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer
        self._kid = 0
        self._start = 0.0
        self._args: Optional[dict] = None
        self._active = False

    def set(self, **args: Any) -> "_SpanHandle":
        """Attach (or update) span arguments mid-flight."""
        if self._args is None:
            self._args = {}
        self._args.update(args)
        return self

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        buf = tracer._sbuf
        buf.extend((self._start, tracer.env.now, self._kid))
        log = tracer.log
        if self._args:
            log.span_args[len(log.spans) - 1] = self._args
        if len(buf) >= tracer._sflush:
            log.spans.column.flush()
        self._active = False
        tracer._free.append(self)


class _NullHandle:
    """Shared do-nothing span handle — the disabled-tracing hot path."""

    __slots__ = ()

    def set(self, **args: Any) -> "_NullHandle":
        return self

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class _NullTracer:
    """Tracer stand-in when tracing is disabled. All methods are no-ops
    returning shared singletons; nothing is allocated per call."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, cat: str = "", track: str = "main",
             **args: Any) -> _NullHandle:
        return _NULL_HANDLE

    def instant(self, name: str, cat: str = "", track: str = "main",
                **args: Any) -> None:
        pass

    def counter(self, name: str, value: float, cat: str = "util") -> None:
        pass


NULL_TRACER = _NullTracer()


class Tracer:
    """Collects spans/instants/counter samples against one environment.

    Recording is columnar (v2): events append interned-key float rows
    into a :class:`~repro.obs.columnar.ColumnarLog` — no per-event
    Python objects. The historical per-object views (``spans`` as
    :class:`Span` objects in close order, ``instants`` and
    ``counter_samples`` as tuples) are materialised from the columns on
    access and cached until more events arrive, so existing consumers
    and exporters see exactly the v1 shapes.
    """

    enabled = True

    def __init__(self, env):
        self.env = env
        self.log = ColumnarLog()
        # hot-path caches: the shared key dicts and the stable buffer
        # lists / flush thresholds of each table (see FloatColumn.buf)
        self._keys = self.log.keys
        self._ckeys = self.log.ckeys
        self._sbuf = self.log.spans.column.buf
        self._sflush = self.log.spans.column.flush_at
        self._ibuf = self.log.instants.column.buf
        self._iflush = self.log.instants.column.flush_at
        self._cbuf = self.log.counters.column.buf
        self._cflush = self.log.counters.column.flush_at
        # span-handle pool + every handle ever created (for in-flight
        # discovery at export time; bounded by max concurrent nesting)
        self._free: list[_SpanHandle] = []
        self._handles: list[_SpanHandle] = []
        # materialised-view caches, invalidated by row-count change
        self._span_view: Optional[list[Span]] = None
        self._instant_view: Optional[list[tuple]] = None
        self._counter_view: Optional[list[tuple]] = None

    def span(self, name: str, cat: str = "", track: str = "main",
             **args: Any) -> _SpanHandle:
        """Open a span; use as a context manager (``with tracer.span(...)``).
        The span is recorded when the ``with`` block exits."""
        try:
            kid = self._keys[(name, cat, track)]
        except KeyError:
            kid = self.log.key_id(name, cat, track)
        free = self._free
        if free:
            handle = free.pop()
        else:
            handle = _SpanHandle(self)
            self._handles.append(handle)
        handle._kid = kid
        handle._start = self.env.now
        handle._args = args or None
        handle._active = True
        return handle

    def instant(self, name: str, cat: str = "", track: str = "main",
                **args: Any) -> None:
        """Record a zero-duration marker at the current simulated time."""
        log = self.log
        try:
            kid = self._keys[(name, cat, track)]
        except KeyError:
            kid = log.key_id(name, cat, track)
        if args:
            log.instant_args[len(log.instants)] = args
        buf = self._ibuf
        buf.extend((self.env.now, kid))
        if len(buf) >= self._iflush:
            log.instants.column.flush()

    def counter(self, name: str, value: float, cat: str = "util") -> None:
        """Record one sample of a named counter series."""
        try:
            ckid = self._ckeys[(name, cat)]
        except KeyError:
            ckid = self.log.counter_key_id(name, cat)
        buf = self._cbuf
        buf.extend((self.env.now, float(value), ckid))
        if len(buf) >= self._cflush:
            self.log.counters.column.flush()

    # -- materialised v1-shaped views ------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Closed spans as :class:`Span` objects, in close order."""
        n = len(self.log.spans)
        if self._span_view is None or len(self._span_view) != n:
            rows = self.log.spans.rows().tolist()
            keys = self.log.key_list
            args = self.log.span_args
            view = []
            for i, (start, end, kid) in enumerate(rows):
                name, cat, track = keys[int(kid)]
                span = Span(name, cat, track, start, args.get(i))
                span.end = end
                view.append(span)
            self._span_view = view
        return self._span_view

    @property
    def instants(self) -> list[tuple[float, str, str, str, Optional[dict]]]:
        """Markers as ``(time, name, cat, track, args)`` tuples."""
        n = len(self.log.instants)
        if self._instant_view is None or len(self._instant_view) != n:
            keys = self.log.key_list
            args = self.log.instant_args
            self._instant_view = [
                (ts, *keys[int(kid)], args.get(i))
                for i, (ts, kid) in enumerate(
                    self.log.instants.rows().tolist())
            ]
        return self._instant_view

    @property
    def counter_samples(self) -> list[tuple[float, str, float, str]]:
        """Counter samples as ``(time, name, value, cat)`` tuples."""
        n = len(self.log.counters)
        if self._counter_view is None or len(self._counter_view) != n:
            ckeys = self.log.ckey_list
            self._counter_view = [
                (ts, ckeys[int(kid)][0], value, ckeys[int(kid)][1])
                for ts, value, kid in self.log.counters.rows().tolist()
            ]
        return self._counter_view

    # -- export support ---------------------------------------------------
    def inflight_spans(self) -> list[Span]:
        """Still-open spans closed at the current simulated clock.

        Each synthesised span carries ``args["inflight"] = True`` so a
        dump taken mid-run shows what was executing rather than silently
        dropping unfinished work. Ordered by (start, track, name) for
        deterministic export.
        """
        now = self.env.now
        out = []
        for handle in self._handles:
            if handle._active:
                name, cat, track = self.log.key_list[handle._kid]
                args = dict(handle._args) if handle._args else {}
                args["inflight"] = True
                span = Span(name, cat, track, handle._start, args)
                span.end = now
                out.append(span)
        out.sort(key=lambda s: (s.start, s.track, s.name))
        return out

    def known_tracks(self) -> list[str]:
        """Every interned track name, sorted once — the exporter's stable
        ``tid`` ordering."""
        return sorted(self.log.tracks())


def attach_tracer(env) -> Tracer:
    """Attach (and return) a tracer on ``env``; idempotent — an
    already-attached tracer is kept."""
    existing = getattr(env, "tracer", None)
    if existing is not None:
        return existing
    env.tracer = Tracer(env)
    return env.tracer


def tracer_of(env):
    """The tracer attached to ``env``, or :data:`NULL_TRACER`."""
    tracer = getattr(env, "tracer", None)
    return tracer if tracer is not None else NULL_TRACER


# --------------------------------------------------------------------------
# Export
# --------------------------------------------------------------------------

def _us(seconds: float) -> float:
    """Simulated seconds -> trace_event microseconds (exact, no wall time)."""
    return round(seconds * 1e6, 3)


def chrome_events(tracer: Tracer, pid: int = 0, process_name: str = "sim",
                  extra_counters: Optional[list[tuple]] = None) -> list[dict]:
    """Flatten one tracer into Chrome ``trace_event`` dicts.

    Events are sorted by (timestamp, -duration, track, name) so exported
    timestamps are monotonically non-decreasing and parents precede their
    children at equal start times.

    Spans still open at dump time are exported closed at the current
    simulated clock with an ``inflight: true`` arg instead of being
    dropped. ``tid`` assignment is stable by construction: the union of
    all known tracks (the tracer's interned set when available, plus any
    track seen on a span or instant) is sorted lexicographically once
    and tids are 1-based positions in that order — insertion order never
    changes the numbering.
    """
    spans = list(tracer.spans)
    inflight = getattr(tracer, "inflight_spans", None)
    if inflight is not None:
        spans.extend(inflight())
    track_set = {s.track for s in spans}
    track_set.update(track for _t, _n, _c, track, _a in tracer.instants)
    known = getattr(tracer, "known_tracks", None)
    if known is not None:
        track_set.update(known())
    tracks = sorted(track_set)
    tid_of = {track: i + 1 for i, track in enumerate(tracks)}

    events: list[dict] = []
    events.append({
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0, "ts": 0,
        "args": {"name": process_name},
    })
    for track in tracks:
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid,
            "tid": tid_of[track], "ts": 0, "args": {"name": track},
        })

    body: list[tuple] = []
    for span in spans:
        ev = {
            "ph": "X", "name": span.name, "cat": span.cat or "span",
            "pid": pid, "tid": tid_of[span.track],
            "ts": _us(span.start), "dur": _us(span.duration),
        }
        if span.args:
            ev["args"] = span.args
        body.append((ev["ts"], -ev["dur"], span.track, span.name, ev))
    for when, name, cat, track, args in tracer.instants:
        ev = {
            "ph": "i", "name": name, "cat": cat or "instant",
            "pid": pid, "tid": tid_of[track], "ts": _us(when), "s": "t",
        }
        if args:
            ev["args"] = args
        body.append((ev["ts"], 0.0, track, name, ev))
    for when, name, value, cat in (
            list(tracer.counter_samples) + list(extra_counters or ())):
        ev = {
            "ph": "C", "name": name, "cat": cat, "pid": pid, "tid": 0,
            "ts": _us(when), "args": {"value": value},
        }
        body.append((ev["ts"], 0.0, "", name, ev))
    body.sort(key=lambda item: item[:4])
    events.extend(ev for *_key, ev in body)
    return events


def _dump(obj: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def write_chrome_trace(path: str, events: list[dict],
                       device_metrics: Optional[list[dict]] = None) -> None:
    """Write the Chrome ``trace_event`` *object format* JSON.

    ``device_metrics`` rows (per-device bytes/utilisation summaries) ride
    along under a ``deviceMetrics`` key; trace viewers ignore unknown
    top-level keys.
    """
    doc: dict[str, Any] = {
        "displayTimeUnit": "ms",
        "traceEvents": events,
    }
    if device_metrics is not None:
        doc["deviceMetrics"] = device_metrics
    with open(path, "w") as fh:
        fh.write(_dump(doc))
        fh.write("\n")


def write_jsonl_trace(path: str, events: list[dict],
                      device_metrics: Optional[list[dict]] = None) -> None:
    """Write one JSON event per line (stream-friendly variant)."""
    with open(path, "w") as fh:
        for event in events:
            fh.write(_dump(event))
            fh.write("\n")
        for row in device_metrics or ():
            fh.write(_dump({"ph": "device", **row}))
            fh.write("\n")


def load_trace(path: str) -> dict:
    """Load a trace written by either exporter.

    Returns ``{"traceEvents": [...], "deviceMetrics": [...]}`` regardless
    of the on-disk flavour (object JSON, bare array, or JSONL).
    """
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None  # several documents -> JSONL
    if isinstance(doc, dict):
        return {"traceEvents": doc.get("traceEvents", []),
                "deviceMetrics": doc.get("deviceMetrics", [])}
    if isinstance(doc, list):
        return {"traceEvents": doc, "deviceMetrics": []}
    events, devices = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("ph") == "device":
            devices.append(record)
        else:
            events.append(record)
    return {"traceEvents": events, "deviceMetrics": devices}


# --------------------------------------------------------------------------
# Multi-run sessions (the bench --trace path)
# --------------------------------------------------------------------------

class TraceSession:
    """Collects one tracer + metrics registry per simulated run and saves
    a single combined trace file.

    A figure bench typically builds several worlds (one per dataset size
    or solution); each :meth:`observe` call claims the next ``pid`` so
    the runs appear as separate named processes in the trace viewer.
    With ``path=None`` the session is disabled and every call no-ops.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        #: (label, tracer, registry)
        self.runs: list[tuple] = []

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def observe(self, env, label: str, nodes=(), pfs=None, hdfs=None,
                network=None):
        """Attach tracing+metrics to one run's environment.

        Returns the attached tracer (or :data:`NULL_TRACER` when the
        session is disabled).
        """
        if not self.enabled:
            return NULL_TRACER
        from repro.obs.metrics import attach_metrics

        tracer = attach_tracer(env)
        registry = attach_metrics(env)
        for node in nodes:
            registry.watch_node(node)
        if network is not None:
            registry.watch_network(network)
        if pfs is not None:
            registry.watch_pfs(pfs)
        if hdfs is not None:
            registry.watch_hdfs(hdfs)
        self.runs.append((label, tracer, registry))
        return tracer

    def observe_world(self, world, label: str):
        """Convenience for :class:`~repro.workloads.solutions
        .ExperimentWorld`-shaped objects."""
        return self.observe(
            world.env, label, nodes=world.nodes, pfs=world.pfs,
            hdfs=world.hdfs, network=world.cluster.network)

    def events(self) -> tuple[list[dict], list[dict]]:
        """Merge all runs into (events, device_metrics rows)."""
        events: list[dict] = []
        devices: list[dict] = []
        for pid, (label, tracer, registry) in enumerate(self.runs, start=1):
            # Fold the registry's utilisation gauges in as counter series
            # so device load is visible on the timeline itself.
            counters = [
                (when, name, value, "util")
                for name, monitor in registry.device_monitors()
                for when, value in zip(monitor.times, monitor.values)
            ]
            events.extend(chrome_events(tracer, pid=pid, process_name=label,
                                        extra_counters=counters))
            for row in registry.device_rows():
                devices.append({"run": label, **row})
            for row in registry.cache_rows():
                devices.append({"run": label, **row})
            # Per-scheme read rows ride along in the device-row shape so
            # every exporter/loader carries them without a schema change.
            for row in registry.scheme_read_rows():
                devices.append({
                    "run": label,
                    "device": f"io.read.{row['scheme']}",
                    "scheme": row["scheme"],
                    "utilization": 0.0,
                    "bytes_moved": row["bytes"],
                    "read_requests": row["requests"],
                    "read_cache_hits": row["cache_hits"],
                })
            # Per-scheme write rows, same trick: the "write_scheme" key
            # is the marker the report renderer partitions on.
            for row in registry.scheme_write_rows():
                devices.append({
                    "run": label,
                    "device": f"io.write.{row['scheme']}",
                    "write_scheme": row["scheme"],
                    "utilization": 0.0,
                    "bytes_moved": row["bytes"],
                    "write_requests": row["requests"],
                })
            # Per-job shuffle rows, same trick: the "shuffle_job" key is
            # the marker the report renderer partitions on.
            for row in registry.shuffle_rows():
                devices.append({
                    "run": label,
                    "device": f"shuffle.{row['job']}",
                    "shuffle_job": row["job"],
                    "utilization": 0.0,
                    "bytes_moved": row["bytes"],
                    "shuffle_fetches": row["fetches"],
                    "shuffle_fetch_retries": row["fetch_retries"],
                    "combine_input_records": row["combine_input_records"],
                    "combine_output_records": row["combine_output_records"],
                    "merge_passes": row["merge_passes"],
                    "spilled_bytes": row["spilled_bytes"],
                })
            # Latency-percentile rows (streaming histograms), same trick:
            # the "hist_name" key is the marker the report renderer
            # partitions on.
            for row in registry.latency_rows():
                devices.append({
                    "run": label,
                    "device": f"lat.{row['hist']}",
                    "hist_name": row["hist"],
                    "utilization": 0.0,
                    "count": row["count"],
                    "mean_seconds": row["mean"],
                    "p50_seconds": row["p50"],
                    "p90_seconds": row["p90"],
                    "p99_seconds": row["p99"],
                    "max_seconds": row["max"],
                })
        return events, devices

    def save(self) -> Optional[str]:
        """Write the combined trace; returns the path (None if disabled)."""
        if not self.enabled:
            return None
        events, devices = self.events()
        if self.path.endswith(".jsonl"):
            write_jsonl_trace(self.path, events, devices)
        else:
            write_chrome_trace(self.path, events, devices)
        return self.path
