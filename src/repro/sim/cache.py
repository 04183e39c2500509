"""Split-aware LRU read-ahead cache for the pipelined data path.

One :class:`ReadAheadCache` per compute node holds recently fetched
stored byte ranges keyed by ``(path, offset, length)`` so overlapping
hyperslab reads — and the map runtime's double-buffered prefetch — do
not refetch from the PFS. The cache is byte-bounded with LRU eviction.

In-flight fetches are first-class: while one task's fetch for a key is
outstanding, a second reader for the same key *joins* the pending event
instead of issuing a duplicate request (the prefetch-overlap case the
``repro.obs`` report surfaces). Counters are shared through a
:class:`CacheStats` so every node's cache on a job rolls up into one
row.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.sim.engine import Environment, Event, SimulationError

__all__ = ["CacheStats", "ReadAheadCache"]


class CacheStats:
    """Shared hit/miss/overlap counters for one or more caches."""

    __slots__ = ("name", "hits", "misses", "overlap_hits",
                 "bytes_from_cache", "bytes_inserted", "evictions",
                 "prefetch_fills")

    def __init__(self, name: str = ""):
        self.name = name
        #: lookups served from cached bytes
        self.hits = 0
        #: lookups that had to issue a fetch
        self.misses = 0
        #: lookups that joined another reader's in-flight fetch
        self.overlap_hits = 0
        self.bytes_from_cache = 0
        self.bytes_inserted = 0
        self.evictions = 0
        #: fills performed by background prefetchers
        self.prefetch_fills = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.overlap_hits

    def hit_rate(self) -> float:
        """Fraction of lookups that avoided a PFS fetch (hits + joins)."""
        total = self.lookups
        if total == 0:
            return 0.0
        return (self.hits + self.overlap_hits) / total

    def as_dict(self) -> dict:
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "overlap_hits": self.overlap_hits,
            "bytes_from_cache": self.bytes_from_cache,
            "bytes_inserted": self.bytes_inserted,
            "evictions": self.evictions,
            "prefetch_fills": self.prefetch_fills,
        }


class _Reservation:
    """The right (and duty) to fill one missing cache key."""

    __slots__ = ("_cache", "key", "event", "settled")

    def __init__(self, cache: "ReadAheadCache", key, event: Event):
        self._cache = cache
        self.key = key
        self.event = event
        self.settled = False

    def fill(self, data: bytes, prefetched: bool = False) -> None:
        """Deliver the fetched bytes: inserts, then wakes any joiners."""
        if self.settled:
            raise SimulationError(f"reservation {self.key!r} already settled")
        self.settled = True
        self._cache._fill(self, data, prefetched)

    def abort(self, exc: Optional[BaseException] = None) -> None:
        """Give up on the fetch; joiners see ``exc`` (or a KeyError)."""
        if self.settled:
            return
        self.settled = True
        self._cache._abort(self, exc)


class ReadAheadCache:
    """Byte-bounded LRU over fetched ranges, with in-flight joining.

    The lookup protocol readers follow::

        data = cache.get(key)            # hit -> bytes, else None
        if data is None:
            waiter = cache.join(key)     # someone already fetching?
            if waiter is not None:
                data = yield waiter      # overlap: ride their fetch
            else:
                res = cache.reserve(key)  # miss: fetch it yourself
                ... fetch ...
                res.fill(data)            # or res.abort(exc)
    """

    def __init__(self, env: Environment, capacity_bytes: int,
                 name: str = "", stats: Optional[CacheStats] = None):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self.env = env
        self.capacity_bytes = int(capacity_bytes)
        self.name = name
        self.stats = stats if stats is not None else CacheStats(name)
        self._entries: "OrderedDict" = OrderedDict()  # key -> bytes
        self._inflight: dict = {}  # key -> _Reservation
        self._used = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, key) -> bool:
        return key in self._entries

    # -- lookup protocol -------------------------------------------------
    def get(self, key) -> Optional[bytes]:
        """Cached bytes for ``key`` (counts a hit), or None."""
        data = self._entries.get(key)
        if data is None:
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.stats.bytes_from_cache += len(data)
        return data

    def join(self, key) -> Optional[Event]:
        """The in-flight fetch event for ``key`` (counts an overlap hit),
        or None when nobody is fetching it."""
        reservation = self._inflight.get(key)
        if reservation is None:
            return None
        self.stats.overlap_hits += 1
        return reservation.event

    def reserve(self, key) -> _Reservation:
        """Claim the fetch of a missing key (counts a miss)."""
        if key in self._inflight:
            raise SimulationError(
                f"key {key!r} already reserved; call join() first")
        self.stats.misses += 1
        reservation = _Reservation(self, key, Event(self.env))
        self._inflight[key] = reservation
        return reservation

    # -- reservation plumbing --------------------------------------------
    def _fill(self, reservation: _Reservation, data: bytes,
              prefetched: bool) -> None:
        self._inflight.pop(reservation.key, None)
        self._insert(reservation.key, data)
        if prefetched:
            self.stats.prefetch_fills += 1
        reservation.event.succeed(data)

    def _abort(self, reservation: _Reservation,
               exc: Optional[BaseException]) -> None:
        self._inflight.pop(reservation.key, None)
        event = reservation.event
        event.fail(exc if exc is not None
                   else KeyError(f"fetch of {reservation.key!r} aborted"))
        # Pre-defuse: with no joiners the failure is already handled by
        # the reserving reader; joiners re-defuse when it is thrown in.
        event.defused = True

    def _insert(self, key, data: bytes) -> None:
        size = len(data)
        if size > self.capacity_bytes:
            return  # would evict everything and still not fit
        old = self._entries.pop(key, None)
        if old is not None:
            self._used -= len(old)
        while self._used + size > self.capacity_bytes and self._entries:
            _evicted_key, evicted = self._entries.popitem(last=False)
            self._used -= len(evicted)
            self.stats.evictions += 1
        self._entries[key] = data
        self._used += size
        self.stats.bytes_inserted += size
