"""Unified observability layer: tracing, metrics, and job history.

Three cooperating pieces, all driven by the *simulated* clock so every
artifact is deterministic and diffs cleanly across runs:

- :mod:`repro.obs.trace` — span tracer attached to a DES
  :class:`~repro.sim.Environment`, with Chrome ``trace_event`` JSON and
  JSONL exporters (open the output in ``chrome://tracing`` / Perfetto).
- :mod:`repro.obs.metrics` — counters / gauges / histograms plus
  per-device byte counts and time-weighted utilisation sampled from
  :class:`~repro.sim.SharedBandwidth` pipes (NICs, disks, OSTs).
- :mod:`repro.obs.history` — Hadoop-style job history: one record per
  task attempt with node, split, locality, phase spans, and the
  retry/speculation outcome.

``python -m repro.obs report <trace.json>`` renders an ASCII task
timeline (one swimlane per node) and the summary tables (devices,
per-scheme reads/writes, shuffle, latency percentiles) from an exported
trace — ``--json`` mirrors every table machine-readably; ``validate``
checks a trace for well-formedness; ``critpath`` runs the
:mod:`repro.obs.critpath` bottleneck attribution over one run.

When no tracer is attached (the default), every hot-path hook resolves
to shared no-op singletons: no spans are allocated and no samples are
recorded.
"""

from repro.obs.critpath import (
    CriticalPath,
    critical_path,
    phase_decomposition,
    spans_from_trace,
)
from repro.obs.hist import LogHistogram
from repro.obs.history import JobHistory, TaskAttempt
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    attach_metrics,
    metrics_of,
)
from repro.obs.trace import (
    NULL_TRACER,
    Span,
    Tracer,
    TraceSession,
    attach_tracer,
    load_trace,
    tracer_of,
    write_chrome_trace,
    write_jsonl_trace,
)

__all__ = [
    "Counter",
    "CriticalPath",
    "Gauge",
    "JobHistory",
    "LogHistogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "Span",
    "TaskAttempt",
    "TraceSession",
    "Tracer",
    "attach_metrics",
    "attach_tracer",
    "critical_path",
    "load_trace",
    "metrics_of",
    "phase_decomposition",
    "spans_from_trace",
    "tracer_of",
    "write_chrome_trace",
    "write_jsonl_trace",
]
