"""Columnar event log — the v2 recording core behind the tracer.

One :class:`ColumnarLog` holds three fixed-width float64 tables built on
:class:`~repro.sim.columns.FloatColumn` chunks:

- ``spans``    — rows of ``(start, end, key_id)``
- ``instants`` — rows of ``(ts, key_id)``
- ``counters`` — rows of ``(ts, value, counter_key_id)``

String data never enters the tables: ``(name, cat, track)`` triples are
interned once into an integer ``key_id`` (counters intern ``(name,
cat)`` separately), so recording an event is a dict probe plus a
three-float list extend — O(1) amortised, no per-event object
allocation. The rare args-carrying events keep their dicts in a side
table indexed by row number.

Everything user-visible (Span objects, Chrome trace events, report
rows) is *re-derived* from the columns at export time; this module is
repro.obs-internal and must not be imported by instrumented packages
(the layering lint enforces that — go through ``attach_tracer`` /
``tracer_of`` / ``attach_metrics`` instead).
"""

from __future__ import annotations

import numpy as np

from repro.sim.columns import FloatColumn

__all__ = ["ColumnarLog", "Table"]


class Table:
    """Fixed-width row table on one chunked float column.

    The chunk threshold is a whole multiple of ``width`` so frozen
    chunks always hold complete rows.
    """

    __slots__ = ("width", "column")

    def __init__(self, width: int, chunk_rows: int = 65536):
        self.width = width
        self.column = FloatColumn(chunk=chunk_rows * width)

    def __len__(self) -> int:
        return len(self.column) // self.width

    def rows(self) -> np.ndarray:
        """Materialise as one ``(n, width)`` array."""
        return self.column.array().reshape(-1, self.width)


class ColumnarLog:
    """Interned-key columnar store for spans, instants and counters."""

    __slots__ = ("keys", "key_list", "ckeys", "ckey_list",
                 "spans", "instants", "counters",
                 "span_args", "instant_args")

    def __init__(self):
        #: (name, cat, track) -> key id; ``key_list[id]`` decodes back
        self.keys: dict[tuple[str, str, str], int] = {}
        self.key_list: list[tuple[str, str, str]] = []
        #: (name, cat) -> counter key id
        self.ckeys: dict[tuple[str, str], int] = {}
        self.ckey_list: list[tuple[str, str]] = []
        self.spans = Table(3)      # (start, end, key_id)
        self.instants = Table(2)   # (ts, key_id)
        self.counters = Table(3)   # (ts, value, counter_key_id)
        #: row index -> args dict, for the rare args-carrying events
        self.span_args: dict[int, dict] = {}
        self.instant_args: dict[int, dict] = {}

    # -- key interning ---------------------------------------------------
    def key_id(self, name: str, cat: str, track: str) -> int:
        key = (name, cat, track)
        kid = self.keys.get(key)
        if kid is None:
            kid = len(self.key_list)
            self.keys[key] = kid
            self.key_list.append(key)
        return kid

    def counter_key_id(self, name: str, cat: str) -> int:
        key = (name, cat)
        kid = self.ckeys.get(key)
        if kid is None:
            kid = len(self.ckey_list)
            self.ckeys[key] = kid
            self.ckey_list.append(key)
        return kid

    def tracks(self) -> set[str]:
        """Every track name ever interned (spans and instants)."""
        return {track for _name, _cat, track in self.key_list}
