"""Naive reference arithmetic the tests hold the production code to.

Each function or class here is the obvious, slow way to compute
something the live code computes with a faster algorithm — a scalar fold
against a vectorised one, a heap merge against a batch sort, a
per-transfer rescan against virtual time — or the inverse of what it
writes: the GIF decoder reads back what ``repro.rlang.gif`` encodes —
or another engine: ``sqlite3`` runs the SQL the R layer runs.
They share no logic with the code they check, which is what makes them
oracles; nothing under ``src/`` may import this module.
"""

import heapq
import math
import sqlite3
import struct
from typing import Any, Optional

import numpy as np

from repro.io.plan import Extent
from repro.sim.engine import URGENT, Environment, Event


# ------------------------------------------------------------ repro.io
def naive_chop(offset: int, length: int,
               granularity: Optional[int]) -> list[tuple[int, int]]:
    """``(offset, length)`` pieces of at most ``granularity`` bytes."""
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


def naive_coalesce_extents(extents: list[Extent]) -> dict[int, list[Extent]]:
    """Per-OST runs: object-adjacent extents merged, in object order."""
    per_ost: dict[int, list[Extent]] = {}
    for ext in sorted(extents, key=lambda e: (e.ost_index, e.object_offset)):
        runs = per_ost.setdefault(ext.ost_index, [])
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
    return per_ost


# ----------------------------------------------------- repro.mapreduce
def naive_hash_partition(key: Any, n_partitions: int) -> int:
    """Byte-at-a-time 31-fold partitioner."""
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    if isinstance(key, bytes):
        h = 0
        for b in key:
            h = (h * 31 + b) & 0x7FFFFFFF
    elif isinstance(key, str):
        h = 0
        for ch in key.encode():
            h = (h * 31 + ch) & 0x7FFFFFFF
    elif isinstance(key, (int, np.integer)):
        h = int(key) & 0x7FFFFFFF
    elif isinstance(key, tuple):
        h = 0
        for item in key:
            h = (h * 1000003 + naive_hash_partition(item, 0x7FFFFFFF)) \
                & 0x7FFFFFFF
    else:
        h = naive_hash_partition(repr(key), 0x7FFFFFFF)
    return h % n_partitions


def naive_merge_sorted_runs(
        runs: list[list[tuple[Any, Any]]]) -> list[tuple[Any, Any]]:
    """Materializing k-way heap merge, one record per pop; equal keys
    come out in run order then record order."""
    from repro.mapreduce.shuffle import _key_order
    heap: list[tuple[Any, int, int]] = []
    for run_idx, run in enumerate(runs):
        if run:
            heap.append((_key_order(run[0][0]), run_idx, 0))
    heapq.heapify(heap)
    out: list[tuple[Any, Any]] = []
    while heap:
        _order, run_idx, pos = heapq.heappop(heap)
        out.append(runs[run_idx][pos])
        if pos + 1 < len(runs[run_idx]):
            heapq.heappush(
                heap, (_key_order(runs[run_idx][pos + 1][0]),
                       run_idx, pos + 1))
    return out


def naive_estimate_size(obj: Any) -> int:
    """Unguarded recursive size estimate (acyclic structures only)."""
    if obj is None:
        return 1
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, np.integer)):
        return 8
    if isinstance(obj, (float, np.floating)):
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 8 + sum(naive_estimate_size(item) for item in obj)
    if isinstance(obj, dict):
        return 8 + sum(
            naive_estimate_size(k) + naive_estimate_size(v)
            for k, v in obj.items())
    return len(repr(obj))


# ----------------------------------------------------------- repro.sim
class _Transfer:
    __slots__ = ("remaining", "event")

    def __init__(self, nbytes: float, event: Event):
        self.remaining = float(nbytes)
        self.event = event


class NaiveSharedBandwidth:
    """Processor-sharing pipe that rescans every active transfer on each
    membership change: O(n) per admission and completion, no virtual
    time, no closed form for a lone transfer."""

    def __init__(self, env: Environment, capacity: float, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        self._active: list[_Transfer] = []
        self._last_update = env.now
        self._generation = 0
        self.bytes_moved = 0.0
        self.busy_time = 0.0
        self.observer = None

    @property
    def n_active(self) -> int:
        return len(self._active)

    def transfer(self, nbytes: float, latency: float = 0.0) -> Event:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        done = Event(self.env)
        if latency > 0:
            delay = self.env.timeout(latency)
            delay.callbacks.append(lambda _ev: self._admit(nbytes, done))
        else:
            self._admit(nbytes, done)
        return done

    def _admit(self, nbytes: float, done: Event) -> None:
        self.bytes_moved += nbytes
        if nbytes == 0:
            done.succeed()
            return
        self._advance()
        self._active.append(_Transfer(nbytes, done))
        if self.observer is not None:
            self.observer(len(self._active))
        self._reschedule()

    def _advance(self) -> None:
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        self.busy_time += elapsed
        rate = self.capacity / len(self._active)
        drained = elapsed * rate
        for xfer in self._active:
            xfer.remaining = max(0.0, xfer.remaining - drained)

    def _reschedule(self) -> None:
        self._generation += 1
        if not self._active:
            return
        gen = self._generation
        rate = self.capacity / len(self._active)
        min_remaining = min(x.remaining for x in self._active)
        delay = min_remaining / rate
        wake = self.env.timeout(delay)
        wake.callbacks.append(lambda _ev: self._on_wake(gen))

    def _on_wake(self, generation: int) -> None:
        if generation != self._generation:
            return
        self._advance()
        eps = 1e-6
        finished = [x for x in self._active if x.remaining <= eps]
        if not finished and self._active:
            floor = min(x.remaining for x in self._active) + eps
            finished = [x for x in self._active if x.remaining <= floor]
        done_set = set(id(x) for x in finished)
        self._active = [x for x in self._active if id(x) not in done_set]
        if finished and self.observer is not None:
            self.observer(len(self._active))
        for xfer in finished:
            xfer.event.succeed(priority=URGENT)
        self._reschedule()

    def utilization(self, since: float = 0.0) -> float:
        self._advance()
        span = self.env.now - since
        if span <= 0:
            return 0.0
        return min(1.0, self.busy_time / span)


# --------------------------------------------------------- repro.rlang
def is_null(value):
    return value is None or (isinstance(value, float) and math.isnan(value))


def _cell(value):
    """A comparable stand-in for one result cell: NULL/NaN sort first,
    numbers compare by value (1 == 1.0), strings after numbers."""
    if is_null(value):
        return (0, 0.0, "")
    if isinstance(value, str):
        return (2, 0.0, value)
    return (1, round(float(value), 9), "")


def multiset(rows):
    return sorted(tuple(_cell(v) for v in row) for row in rows)


def frame_rows(frame):
    return list(zip(*(frame[name].tolist() for name in frame.names)))


def sqlite_rows(sql, frames):
    """Run ``sql`` on sqlite3 tables holding the same rows. Columns are
    declared without a type, so sqlite applies no affinity conversion:
    the text '1' stays different from the number 1, as in the frames;
    LIKE is made case-sensitive, as ours is."""
    db = sqlite3.connect(":memory:")
    try:
        db.execute("PRAGMA case_sensitive_like=ON")
        for table, frame in frames.items():
            db.execute(f"CREATE TABLE {table} ({', '.join(frame.names)})")
            marks = ", ".join("?" * frame.ncol)
            db.executemany(
                f"INSERT INTO {table} VALUES ({marks})",
                [tuple(None if is_null(v) else v for v in row)
                 for row in frame_rows(frame)])
        return db.execute(sql).fetchall()
    finally:
        db.close()


class _BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._current = 0
        self._nbits = 0

    def read(self, width: int) -> int:
        while self._nbits < width:
            if self._pos >= len(self._data):
                raise ValueError("LZW stream truncated")
            self._current |= self._data[self._pos] << self._nbits
            self._pos += 1
            self._nbits += 8
        value = self._current & ((1 << width) - 1)
        self._current >>= width
        self._nbits -= width
        return value


def _lzw_decode(data: bytes, min_code_size: int) -> bytes:
    clear = 1 << min_code_size
    eoi = clear + 1
    reader = _BitReader(data)

    def reset_table():
        return ([bytes([i]) for i in range(clear)] + [b"", b""],
                min_code_size + 1)

    table, width = reset_table()
    out = bytearray()
    prev: bytes | None = None
    while True:
        code = reader.read(width)
        if code == clear:
            table, width = reset_table()
            prev = None
            continue
        if code == eoi:
            return bytes(out)
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        elif code == len(table):
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError(f"bad LZW code {code}")
        out.extend(entry)
        # The decoder constructs entries one step behind the encoder, so
        # it must widen one entry early to stay code-size synchronized.
        if len(table) == (1 << width) - 1 and width < 12:
            width += 1
        prev = entry


def decode_gif(data: bytes) -> tuple[list[np.ndarray], np.ndarray]:
    """Decode GIFs produced by :func:`encode_gif`.

    Returns (frames, palette). Supports the features the encoder emits:
    global color table, full-canvas frames, no transparency/interlace.
    """
    if data[:6] not in (b"GIF89a", b"GIF87a"):
        raise ValueError("not a GIF")
    width, height, flags, _bg, _aspect = struct.unpack(
        "<HHBBB", data[6:13])
    pos = 13
    palette = np.zeros((0, 3), dtype=np.uint8)
    if flags & 0x80:
        size = 2 << (flags & 0x07)
        palette = np.frombuffer(
            data[pos:pos + 3 * size], dtype=np.uint8).reshape(size, 3)
        pos += 3 * size

    frames: list[np.ndarray] = []
    while pos < len(data):
        marker = data[pos]
        pos += 1
        if marker == 0x3B:  # trailer
            break
        if marker == 0x21:  # extension: skip sub-blocks
            pos += 1  # label
            while data[pos] != 0:
                pos += 1 + data[pos]
            pos += 1
        elif marker == 0x2C:  # image descriptor
            left, top, fw, fh, local_flags = struct.unpack(
                "<HHHHB", data[pos:pos + 9])
            pos += 9
            if local_flags & 0x80:
                raise ValueError("local color tables not supported")
            min_code_size = data[pos]
            pos += 1
            lzw = bytearray()
            while data[pos] != 0:
                block_len = data[pos]
                lzw += data[pos + 1:pos + 1 + block_len]
                pos += 1 + block_len
            pos += 1
            pixels = _lzw_decode(bytes(lzw), min_code_size)
            frames.append(np.frombuffer(
                pixels, dtype=np.uint8).reshape(fh, fw))
        else:
            raise ValueError(f"unexpected GIF block {marker:#x}")
    return frames, palette
