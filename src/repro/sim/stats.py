"""Measurement helpers for simulated experiments.

:class:`Monitor` records ``(time, value)`` samples and computes summary
statistics including the time-weighted average (the right mean for
utilisation-style series).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.sim.columns import FloatColumn
from repro.sim.engine import Environment

__all__ = ["Monitor"]


class Monitor:
    """Time-stamped sample recorder, columnar-backed.

    Samples land in two chunked :class:`~repro.sim.columns.FloatColumn`
    stores (no per-sample tuples or objects); statistics are re-derived
    from the columns with vectorised numpy. The ``times``/``values``
    views materialise plain Python lists, matching the historical
    list-based contract bit for bit (float64 round-trips exactly).
    """

    __slots__ = ("env", "name", "_times", "_values", "_tbuf", "_vbuf",
                 "_flush_at")

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._times = FloatColumn()
        self._values = FloatColumn()
        # Cached buffer references for the recording hot path —
        # FloatColumn.buf identity is stable across flushes by contract.
        self._tbuf = self._times.buf
        self._vbuf = self._values.buf
        self._flush_at = self._times.flush_at

    def record(self, value: float) -> None:
        """Record ``value`` at the current simulated time."""
        tbuf = self._tbuf
        tbuf.append(self.env._now)
        self._vbuf.append(float(value))
        if len(tbuf) >= self._flush_at:
            self._times.flush()
            self._values.flush()

    def record_many(self, times, values) -> None:
        """Bulk-ingest aligned ``times``/``values`` sequences.

        Accepts any float iterables (numpy arrays take the no-per-element
        chunk path). Timestamps must be non-decreasing and start at or
        after the last recorded sample for ``time_average`` to stay
        meaningful — callers batching per-event samples already satisfy
        this.
        """
        if isinstance(times, np.ndarray):
            if len(times) != len(values):
                raise ValueError("times and values must align")
            self._times.extend_array(times)
            self._values.extend_array(np.asarray(values, dtype=np.float64))
            return
        times = [float(t) for t in times]
        values = [float(v) for v in values]
        if len(times) != len(values):
            raise ValueError("times and values must align")
        self._times.extend(times)
        self._values.extend(values)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def times(self) -> list[float]:
        """Sample timestamps as a plain list (materialised on demand)."""
        return self._times.tolist()

    @property
    def values(self) -> list[float]:
        """Sample values as a plain list (materialised on demand)."""
        return self._values.tolist()

    @property
    def mean(self) -> float:
        """Plain (unweighted) mean of recorded values."""
        if not len(self._values):
            raise ValueError(f"monitor {self.name!r} has no samples")
        arr = self._values.array()
        return float(arr.sum() / len(arr))

    @property
    def minimum(self) -> float:
        if not len(self._values):
            raise ValueError(f"monitor {self.name!r} has no samples")
        return float(self._values.array().min())

    @property
    def maximum(self) -> float:
        if not len(self._values):
            raise ValueError(f"monitor {self.name!r} has no samples")
        return float(self._values.array().max())

    @property
    def last(self) -> float:
        """The most recently recorded value."""
        if not len(self._values):
            raise ValueError(f"monitor {self.name!r} has no samples")
        return self._values.last()

    @property
    def stdev(self) -> float:
        if len(self._values) < 2:
            return 0.0
        arr = self._values.array()
        mu = arr.sum() / len(arr)
        return math.sqrt(float(((arr - mu) ** 2).sum()) / (len(arr) - 1))

    def time_average(self, until: Optional[float] = None) -> float:
        """Step-function time-weighted mean of the series.

        Each recorded value is held until the next sample; the final value
        is held until ``until`` (default: current simulated time).
        Computed as one vectorised dot product over the columns.
        """
        if not len(self._values):
            raise ValueError(f"monitor {self.name!r} has no samples")
        end = self.env.now if until is None else until
        times = self._times.array()
        values = self._values.array()
        t_next = np.empty_like(times)
        t_next[:-1] = times[1:]
        t_next[-1] = end
        dt = np.maximum(0.0, t_next - times)
        span = float(dt.sum())
        if span == 0:
            return float(values[-1])
        return float(np.dot(values, dt)) / span
