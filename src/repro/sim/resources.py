"""Shared resources for the simulation kernel.

- :class:`Resource` — counted slots with a FIFO wait queue (CPU task slots).
- :class:`Container` — continuous quantity (memory bytes).
- :class:`Store` — FIFO object queue (message channels).
- :class:`SharedBandwidth` — a processor-sharing pipe: ``capacity`` bytes/s
  divided equally among all in-flight transfers. Disks and network links are
  instances of this; contention effects in the paper's figures emerge from
  it rather than being hard-coded.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from repro.sim.engine import URGENT, Environment, Event, SimulationError

__all__ = ["Container", "Resource", "SharedBandwidth", "Store"]

_INF = float("inf")


class Request(Event):
    """Pending acquisition of one :class:`Resource` slot."""

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        #: simulated time the request joined the queue — grant time minus
        #: this is the queue wait the metrics layer samples
        self.requested_at = resource.env.now
        resource._enqueue(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` identical slots handed out FIFO."""

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._waiting: deque[Request] = deque()
        #: Optional callable(wait_seconds) invoked at every grant — the
        #: hook the metrics layer feeds queue-wait percentiles through.
        self.wait_observer = None

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        """Return an event that fires when a slot is granted."""
        return Request(self)

    def _enqueue(self, req: Request) -> None:
        if len(self._users) < self.capacity and not self._waiting:
            self._users.add(req)
            if self.wait_observer is not None:
                self.wait_observer(0.0)
            req.succeed(priority=URGENT)
        else:
            self._waiting.append(req)

    def release(self, req: Request) -> None:
        """Free the slot held by ``req``; wakes the next waiter, if any."""
        if req in self._users:
            self._users.remove(req)
        elif req in self._waiting:  # cancelled before being granted
            self._waiting.remove(req)
            return
        else:
            raise SimulationError("release of a request that holds no slot")
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            if self.wait_observer is not None:
                self.wait_observer(self.env.now - nxt.requested_at)
            nxt.succeed(priority=URGENT)


class Container:
    """A continuous quantity with blocking ``get`` and non-blocking ``put``."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 init: float = 0.0, name: str = ""):
        if init < 0 or init > capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._level = float(init)
        self._getters: deque[tuple[Event, float]] = deque()
        self._putters: deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be >= 0")
        ev = Event(self.env)
        self._putters.append((ev, amount))
        self._settle()
        return ev

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("amount must be >= 0")
        ev = Event(self.env)
        self._getters.append((ev, amount))
        self._settle()
        return ev

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                ev, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    ev.succeed(priority=URGENT)
                    progress = True
            if self._getters:
                ev, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    ev.succeed(priority=URGENT)
                    progress = True


class Store:
    """FIFO queue of Python objects with optional capacity."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 name: str = ""):
        self.env = env
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        ev = Event(self.env)
        self._putters.append((ev, item))
        self._settle()
        return ev

    def get(self) -> Event:
        ev = Event(self.env)
        self._getters.append(ev)
        self._settle()
        return ev

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and len(self._items) < self.capacity:
                ev, item = self._putters.popleft()
                self._items.append(item)
                ev.succeed(priority=URGENT)
                progress = True
            while self._getters and self._items:
                ev = self._getters.popleft()
                ev.succeed(self._items.popleft(), priority=URGENT)
                progress = True


class _Transfer:
    __slots__ = ("finish_tag", "event", "total", "seq")

    def __init__(self, nbytes: float, event: Event, finish_tag: float,
                 seq: int):
        self.total = float(nbytes)
        self.event = event
        #: virtual-time service level at which this transfer completes
        self.finish_tag = finish_tag
        #: admission order, for deterministic completion tie-breaks
        self.seq = seq


class SharedBandwidth:
    """Processor-sharing pipe: ``capacity`` bytes/s split across transfers.

    ``transfer(nbytes)`` returns an event that fires when the bytes have
    drained through the pipe. While *n* transfers are active each proceeds
    at ``capacity / n``; start/finish of any transfer re-apportions the
    remainder, which is the standard fluid model for disk and NIC
    contention.

    Bookkeeping uses the virtual-time formulation: one cumulative
    per-transfer service counter advances at ``capacity / n`` bytes per
    second, and each transfer carries a fixed finish tag (counter at
    admission + its bytes) in a heap. A membership change is O(log n) —
    no per-transfer rescan — while the simulated timings are identical
    to walking every active transfer, since a transfer's remaining bytes
    are always ``finish_tag - counter``.

    A transfer admitted to an *idle* pipe skips the heap: one closed-form
    completion timeout (``nbytes / capacity``) fires its done event. If a
    second transfer arrives first, the lone transfer re-expands into the
    heap with its exact remaining bytes and the pending closed-form
    completion is invalidated, so contention is modelled exactly (see
    DESIGN.md §13).

    ``latency`` adds a fixed delay before the transfer joins the pipe —
    used for per-request seek/RPC overheads.
    """

    def __init__(self, env: Environment, capacity: float, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self.name = name
        #: completion event of the lone closed-form transfer, if any.
        #: Invariant: non-None implies the heap is empty.
        self._lone_done: Optional[Event] = None
        self._lone_nbytes = 0.0
        self._lone_start = 0.0
        #: busy_time already credited for the lone transfer
        self._lone_accrued = 0.0
        self._lone_gen = 0
        #: cumulative per-transfer service, in bytes (virtual time)
        self._vtime = 0.0
        #: (finish_tag, seq, transfer) min-heap of active transfers
        self._heap: list[tuple[float, int, _Transfer]] = []
        self._seq = 0
        self._last_update = env.now
        self._generation = 0
        #: Total bytes ever pushed through (for utilisation statistics).
        self.bytes_moved = 0.0
        #: Simulated seconds with at least one transfer in flight.
        self.busy_time = 0.0
        #: Optional callable(in_flight_count) invoked after every
        #: membership change — the hook the metrics layer samples through.
        self.observer = None

    @property
    def n_active(self) -> int:
        return len(self._heap) + (self._lone_done is not None)

    def transfer(self, nbytes: float, latency: float = 0.0) -> Event:
        """Move ``nbytes`` through the pipe; returns the completion event."""
        if not 0 <= nbytes < _INF:  # NaN fails every comparison
            raise ValueError(
                f"nbytes must be finite and >= 0, got {nbytes!r}")
        if not -_INF < latency < _INF:
            raise ValueError(f"latency must be finite, got {latency!r}")
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
        if self._lone_done is not None:
            self._expand_lone()
        elif not self._heap:
            # Idle pipe: one closed-form completion event — the same
            # timeout delay (vtime is 0 when idle, so it is
            # nbytes/capacity), observer call and URGENT done the heap
            # would produce for a lone transfer.
            self._lone_done = done
            self._lone_nbytes = float(nbytes)
            self._lone_start = self.env.now
            self._lone_accrued = 0.0
            self._lone_gen += 1
            gen = self._lone_gen
            if self.observer is not None:
                self.observer(1)
            wake = self.env.timeout(nbytes / self.capacity)
            wake.callbacks.append(lambda _ev: self._lone_complete(gen))
            return
        self._advance()
        self._seq += 1
        xfer = _Transfer(nbytes, done, self._vtime + float(nbytes),
                         self._seq)
        heapq.heappush(self._heap, (xfer.finish_tag, xfer.seq, xfer))
        if self.observer is not None:
            self.observer(len(self._heap))
        self._reschedule()

    def _advance(self) -> None:
        """Accrue service since the last membership change."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if self._lone_done is not None:
            acc = (now - self._lone_start) - self._lone_accrued
            if acc > 0:
                self.busy_time += acc
                self._lone_accrued = now - self._lone_start
        if elapsed <= 0 or not self._heap:
            return
        self.busy_time += elapsed
        rate = self.capacity / len(self._heap)
        self._vtime += elapsed * rate

    def _lone_complete(self, generation: int) -> None:
        """Closed-form completion of an uncontended transfer."""
        if generation != self._lone_gen or self._lone_done is None:
            return  # re-expanded into the heap before completing
        now = self.env.now
        self.busy_time += (now - self._lone_start) - self._lone_accrued
        self._last_update = now
        done = self._lone_done
        self._lone_done = None
        if self.observer is not None:
            self.observer(0)
        done.succeed(priority=URGENT)

    def _expand_lone(self) -> None:
        """Re-expand the lone closed-form transfer into the heap.

        Called when a second transfer arrives: the lone transfer joins
        the heap with its exact remaining bytes, the pending closed-form
        completion is invalidated, and contention proceeds under the
        processor-sharing model.
        """
        now = self.env.now
        elapsed = now - self._lone_start
        self.busy_time += elapsed - self._lone_accrued
        drained = elapsed * self.capacity
        remaining = max(self._lone_nbytes - drained, 0.0)
        done = self._lone_done
        self._lone_done = None
        self._lone_gen += 1  # pending closed-form completion is now stale
        self._last_update = now
        self._vtime = 0.0
        self._seq += 1
        xfer = _Transfer(remaining, done, remaining, self._seq)
        heapq.heappush(self._heap, (xfer.finish_tag, xfer.seq, xfer))
        # No observer call here: the admission that triggered the
        # re-expansion reports the new in-flight count right after pushing
        # its transfer.

    def _reschedule(self) -> None:
        """Schedule a wake-up at the earliest projected completion."""
        self._generation += 1
        if not self._heap:
            # Idle pipe: restart virtual time at zero so a lone transfer's
            # arithmetic (tag - vtime == nbytes - drained) matches the
            # per-transfer subtraction bit for bit, and the counter never
            # grows without bound across a long run.
            self._vtime = 0.0
            return
        gen = self._generation
        rate = self.capacity / len(self._heap)
        min_remaining = max(0.0, self._heap[0][0] - self._vtime)
        delay = min_remaining / rate
        wake = self.env.timeout(delay)
        wake.callbacks.append(lambda _ev: self._on_wake(gen))

    def _on_wake(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a later membership change
        self._advance()
        # Float quantization can leave a sub-byte residue whose drain time
        # underflows against a large `now` (now + delay == now), which
        # would livelock. An unchanged generation means no transfer joined
        # or left since this wake was scheduled, so the transfer(s) it was
        # scheduled for have mathematically finished: force-finish the
        # minimum-remaining transfer when the epsilon test misses it.
        eps = 1e-6
        finished: list[_Transfer] = []
        while self._heap and self._heap[0][0] - self._vtime <= eps:
            finished.append(heapq.heappop(self._heap)[2])
        if not finished and self._heap:
            floor = (self._heap[0][0] - self._vtime) + eps
            while self._heap and self._heap[0][0] - self._vtime <= floor:
                finished.append(heapq.heappop(self._heap)[2])
        if finished and self.observer is not None:
            self.observer(len(self._heap))
        for xfer in sorted(finished, key=lambda x: x.seq):
            xfer.event.succeed(priority=URGENT)
        self._reschedule()

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of [since, now] this pipe had transfers in flight.

        Based on busy time (a pipe halved between two transfers is still
        fully busy); an idle window counts against utilisation.
        """
        self._advance()
        span = self.env.now - since
        if span <= 0:
            return 0.0
        return min(1.0, self.busy_time / span)
