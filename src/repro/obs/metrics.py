"""Metrics registry: counters, gauges, latency histograms, device utilisation.

Gauges wrap :class:`repro.sim.stats.Monitor`, so their time-weighted
average is the correct mean for utilisation-style series. Device
watching hooks a registry gauge into a
:class:`~repro.sim.resources.SharedBandwidth` pipe's ``observer``
callback: every transfer admission/completion records the new in-flight
count at the simulated time it changed, which makes
``monitor.time_average()`` the exact time-weighted device load with no
polling process in the event queue.

The registry is attached to an environment with :func:`attach_metrics`
and resolved with :func:`metrics_of`; with no registry attached, device
pipes keep their ``observer`` set to ``None`` and pay one attribute test
per membership change.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.obs.hist import LogHistogram
from repro.sim.stats import Monitor

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "attach_metrics",
    "metrics_of",
]


class Counter:
    """Monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment")
        self.value += amount


class Gauge:
    """A sampled series; keeps the full (time, value) history."""

    __slots__ = ("name", "monitor")

    def __init__(self, name: str, env):
        self.name = name
        self.monitor = Monitor(env, name)

    def set(self, value: float) -> None:
        self.monitor.record(value)

    @property
    def last(self) -> float:
        return self.monitor.last

    def time_average(self, until: Optional[float] = None) -> float:
        return self.monitor.time_average(until)


class MetricsRegistry:
    """Named metrics plus the set of watched bandwidth devices."""

    def __init__(self, env):
        self.env = env
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._latencies: dict[str, LogHistogram] = {}
        #: watched devices: name -> (pipe, in-flight gauge)
        self._devices: dict[str, tuple] = {}
        #: watched read-ahead caches: name -> CacheStats
        self._caches: dict[str, Any] = {}
        self._watched_ids: set[int] = set()

    # -- named metrics ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name, self.env)
        return self._gauges[name]

    def latency(self, name: str) -> LogHistogram:
        """A streaming :class:`~repro.obs.hist.LogHistogram` for
        high-volume duration series (task durations, fetch latencies):
        fixed memory, p50/p90/p99 with bounded relative error, mergeable
        across registries."""
        if name not in self._latencies:
            self._latencies[name] = LogHistogram(name)
        return self._latencies[name]

    # -- device watching -------------------------------------------------
    def watch_pipe(self, pipe, name: Optional[str] = None) -> None:
        """Sample a :class:`SharedBandwidth` pipe's in-flight count.

        Idempotent per pipe; the pipe's ``observer`` slot is pointed at a
        registry gauge, so each membership change records one sample at
        the simulated time it happened.
        """
        if id(pipe) in self._watched_ids:
            return
        self._watched_ids.add(id(pipe))
        label = name or pipe.name or f"pipe{len(self._devices)}"
        gauge = self.gauge(f"device.{label}.in_flight")
        gauge.set(pipe.n_active)
        # Bind the pipe straight to the monitor's columnar fast path —
        # one frame per membership change instead of two.
        pipe.observer = gauge.monitor.record
        self._devices[label] = (pipe, gauge)

    def watch_node(self, node) -> None:
        """Watch one compute/storage node's NIC pipes and disks."""
        self.watch_pipe(node.tx)
        self.watch_pipe(node.rx)
        for disk in node.disks:
            self.watch_pipe(disk.pipe)

    def watch_network(self, network) -> None:
        if network.core is not None:
            self.watch_pipe(network.core)

    def watch_pfs(self, pfs) -> None:
        """Watch every OST disk (per-OST bandwidth/utilisation)."""
        for ost in pfs.osts:
            self.watch_pipe(ost.disk.pipe, name=f"ost{ost.index}")

    def watch_hdfs(self, hdfs) -> None:
        """Watch datanode disks (no-ops for disks already watched via
        their node)."""
        for datanode in hdfs.datanodes:
            self.watch_pipe(datanode.node.disk.pipe,
                            name=f"dn.{datanode.name}")

    def watch_cache(self, stats, name: Optional[str] = None) -> None:
        """Register a read-ahead cache's shared
        :class:`~repro.sim.cache.CacheStats` so its hit/miss/overlap
        counters show up next to the device utilisation rows.
        Idempotent per stats object."""
        if id(stats) in self._watched_ids:
            return
        self._watched_ids.add(id(stats))
        label = stats.name or name or f"cache{len(self._caches)}"
        self._caches[label] = stats

    def watch_slots(self, resource, name: Optional[str] = None) -> None:
        """Sample a :class:`~repro.sim.resources.Resource`'s queue waits.

        Points the resource's ``wait_observer`` hook at a streaming
        latency histogram (``slots.<name>.queue_wait``): every slot
        grant records how long the request waited, which is exactly the
        queue-wait percentile series multi-tenant scheduling needs.
        Idempotent per resource.
        """
        if id(resource) in self._watched_ids:
            return
        self._watched_ids.add(id(resource))
        label = name or resource.name or f"slots{len(self._latencies)}"
        resource.wait_observer = self.latency(
            f"slots.{label}.queue_wait").observe

    # -- export ----------------------------------------------------------
    def device_monitors(self) -> Iterable[tuple[str, Monitor]]:
        """(device name, in-flight Monitor) pairs, name-sorted."""
        for label in sorted(self._devices):
            _pipe, gauge = self._devices[label]
            yield label, gauge.monitor

    def device_rows(self, since: float = 0.0) -> list[dict]:
        """Per-device summary: bytes moved, busy seconds, utilisation,
        and the time-weighted mean number of in-flight transfers."""
        rows = []
        for label in sorted(self._devices):
            pipe, gauge = self._devices[label]
            monitor = gauge.monitor
            rows.append({
                "device": label,
                "capacity_bps": pipe.capacity,
                "bytes_moved": pipe.bytes_moved,
                "busy_seconds": round(pipe.busy_time, 9),
                "utilization": round(pipe.utilization(since), 6),
                "mean_in_flight": round(
                    monitor.time_average() if len(monitor) else 0.0, 6),
            })
        return rows

    def cache_rows(self) -> list[dict]:
        """Per-cache summary rows in the device-row shape: hit/miss/
        overlap counters, bytes served, and the hit rate as the row's
        ``utilization`` (always within [0, 1])."""
        rows = []
        for label in sorted(self._caches):
            stats = self._caches[label]
            rows.append({
                "device": f"cache.{label}",
                "cache_hits": stats.hits,
                "cache_misses": stats.misses,
                "overlap_hits": stats.overlap_hits,
                "prefetch_fills": stats.prefetch_fills,
                "bytes_moved": float(stats.bytes_from_cache),
                "utilization": round(stats.hit_rate(), 6),
            })
        return rows

    def scheme_read_rows(self) -> list[dict]:
        """Per-backend datapath read summary, one row per URL scheme.

        Aggregates the ``io.read.<scheme>.{bytes,requests,cache_hits}``
        counters every :class:`repro.io.planner.ReadPlanner` maintains.
        Layered paths count at each layer they cross (a connector read
        also shows up as ``pfs`` OST traffic) — the rows answer "what did
        each entry point move", not "what did the disks move once".
        """
        per_scheme: dict[str, dict[str, float]] = {}
        for name, counter in self._counters.items():
            parts = name.split(".")
            if len(parts) != 4 or parts[0] != "io" or parts[1] != "read":
                continue
            per_scheme.setdefault(parts[2], {})[parts[3]] = counter.value
        return [
            {
                "scheme": scheme,
                "bytes": per_scheme[scheme].get("bytes", 0.0),
                "requests": per_scheme[scheme].get("requests", 0.0),
                "cache_hits": per_scheme[scheme].get("cache_hits", 0.0),
            }
            for scheme in sorted(per_scheme)
        ]

    def scheme_write_rows(self) -> list[dict]:
        """Per-backend datapath write summary, one row per URL scheme.

        Aggregates the ``io.write.<scheme>.{bytes,requests}`` counters
        every :class:`repro.io.write.WritePlanner` maintains — the
        write-side mirror of :meth:`scheme_read_rows`, with the same
        per-layer counting rule (a connector write also shows up as
        ``pfs`` push traffic).
        """
        per_scheme: dict[str, dict[str, float]] = {}
        for name, counter in self._counters.items():
            parts = name.split(".")
            if len(parts) != 4 or parts[0] != "io" or parts[1] != "write":
                continue
            per_scheme.setdefault(parts[2], {})[parts[3]] = counter.value
        return [
            {
                "scheme": scheme,
                "bytes": per_scheme[scheme].get("bytes", 0.0),
                "requests": per_scheme[scheme].get("requests", 0.0),
            }
            for scheme in sorted(per_scheme)
        ]

    def shuffle_rows(self) -> list[dict]:
        """Per-job shuffle summary, one row per job name.

        Aggregates the flat ``shuffle.<job>.<name>`` counters each
        :class:`repro.mapreduce.runtime.JobRunner` publishes from its
        job's ``shuffle`` counter group when the job finishes (bytes
        fetched, fetches/retries, combiner record folds, merge spill
        passes).
        """
        per_job: dict[str, dict[str, float]] = {}
        for name, counter in self._counters.items():
            parts = name.split(".")
            if len(parts) < 3 or parts[0] != "shuffle":
                continue
            # job names may themselves contain dots
            job, field = ".".join(parts[1:-1]), parts[-1]
            per_job.setdefault(job, {})[field] = counter.value
        return [
            {
                "job": job,
                "bytes": per_job[job].get("bytes", 0.0),
                "fetches": per_job[job].get("fetches", 0.0),
                "fetch_retries": per_job[job].get("fetch_retries", 0.0),
                "combine_input_records": per_job[job].get(
                    "combine_input_records", 0.0),
                "combine_output_records": per_job[job].get(
                    "combine_output_records", 0.0),
                "merge_passes": per_job[job].get("merge_passes", 0.0),
                "spilled_bytes": per_job[job].get("spilled_bytes", 0.0),
            }
            for job in sorted(per_job)
        ]

    def latency_rows(self) -> list[dict]:
        """Percentile summary rows, one per non-empty latency histogram:
        count, mean, p50/p90/p99 and exact max, all in seconds."""
        rows = []
        for name in sorted(self._latencies):
            hist = self._latencies[name]
            if not len(hist):
                continue
            rows.append({
                "hist": name,
                "count": float(hist.count),
                "mean": hist.mean,
                "p50": hist.quantile(0.50),
                "p90": hist.quantile(0.90),
                "p99": hist.quantile(0.99),
                "max": hist.max,
            })
        return rows

    def as_dict(self) -> dict:
        """Snapshot of every named metric plus the device table."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"last": g.monitor.last,
                    "time_average": g.monitor.time_average()}
                for n, g in sorted(self._gauges.items()) if len(g.monitor)
            },
            "latencies": {n: h.summary()
                          for n, h in sorted(self._latencies.items())
                          if len(h)},
            "devices": self.device_rows(),
            "caches": self.cache_rows(),
            "reads": self.scheme_read_rows(),
            "writes": self.scheme_write_rows(),
            "shuffles": self.shuffle_rows(),
        }


def attach_metrics(env, registry: Optional[MetricsRegistry] = None
                   ) -> MetricsRegistry:
    """Attach (and return) a metrics registry on ``env``; idempotent."""
    existing = getattr(env, "metrics", None)
    if registry is None:
        if isinstance(existing, MetricsRegistry):
            return existing
        registry = MetricsRegistry(env)
    env.metrics = registry
    return registry


def metrics_of(env) -> Optional[MetricsRegistry]:
    """The registry attached to ``env``, or None."""
    registry = getattr(env, "metrics", None)
    return registry if isinstance(registry, MetricsRegistry) else None
