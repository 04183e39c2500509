"""Core event loop, events, and process coroutines.

Semantics follow the classic process-interaction style:

- :class:`Event` has three states: pending, triggered (scheduled on the
  queue), and processed (callbacks ran). Events carry a value or an
  exception.
- :class:`Process` wraps a generator. Each ``yield expr`` must produce an
  :class:`Event`; the process resumes with the event's value (or the event's
  exception is thrown into the generator).
- :class:`Environment.run` pops events in ``(time, priority, seq)`` order,
  so simultaneous events fire in the order they were scheduled —
  deterministic by construction.

The implementation is tuned for cluster-scale event counts (millions of
events per run); its pop order on a seeded program of mixed timeouts,
handoffs, conditions and interrupts is pinned by ``tests/golden/sim.json``:

- every event class carries ``__slots__`` — no per-event ``__dict__``;
- ``(priority, seq)`` are packed into one integer sort key, so heap
  entries are 3-tuples and tie-breaking is a single int compare;
- events scheduled *at the current instant* (resource grants, process
  terminations, condition triggers — the dominant class) go to per-
  priority FIFO buckets instead of the heap: append/pop is O(1) and the
  heap only ever holds genuinely future timestamps;
- :class:`Timeout` and the internal initialize events are recycled
  through free lists. An event is recycled only when the engine can
  *prove* nobody else references it (an exact CPython refcount check
  after its callbacks ran), so user-held events are never corrupted;
- a process detaches from the event it waits on by tombstoning its
  callback slot in place (O(1)) instead of ``list.remove`` (O(n)),
  with a lazy sweep once tombstones dominate a long callback list —
  interrupting waiters on a wide ``AnyOf``/``AllOf`` fan-in is linear,
  not quadratic.
"""

from __future__ import annotations

from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]

#: Priority for ordinary events.
NORMAL = 1
#: Priority for "urgent" bookkeeping events (resource releases) so that a
#: release at time t is observed by a request at the same t.
URGENT = 0

#: Sort-key span per priority level: ``key = priority * _SPAN + seq``
#: orders exactly like the historical ``(priority, seq)`` tuple for any
#: run shorter than 2**56 scheduling operations.
_SPAN = 1 << 56

#: Free-list bound — enough to absorb any realistic steady-state churn
#: without pinning memory after a burst.
_POOL_MAX = 1024

#: Tombstone-sweep thresholds: compact an event's callback list once it
#: holds more than _SWEEP_MIN tombstones and they are at least half of
#: the list (amortised O(1) per detach).
_SWEEP_MIN = 16

_INF = float("inf")


class SimulationError(Exception):
    """Raised for illegal engine operations (double trigger, bad yield...)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries the interrupter-supplied reason.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()


class Event:
    """A happening at a point in simulated time.

    Callbacks are invoked exactly once, when the environment processes the
    event. Use :meth:`succeed` / :meth:`fail` to trigger manually.

    A ``None`` entry in :attr:`callbacks` is a tombstone left by an O(1)
    detach (see :meth:`Process.interrupt`); the dispatch loop skips them.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "defused",
                 "_dead")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        #: Set when the exception was handed to someone (prevents the engine
        #: from re-raising unhandled failures that a process caught).
        self.defused = False
        #: tombstoned (None) entries currently in ``callbacks``
        self._dead = 0

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (may not be processed)."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        # inlined env._schedule(self, priority) — succeed is the hottest
        # trigger path (slot grants, process terminations)
        env = self.env
        seq = env._seq = env._seq + 1
        if priority == 1:
            env._bn.append((_SPAN + seq, self))
        elif priority == 0:
            env._bu.append((seq, self))
        else:
            heappush(env._queue, (env._now, priority * _SPAN + seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        self.env._schedule(self, priority)
        return self

    # -- callback-list maintenance --------------------------------------
    def _sweep(self) -> None:
        """Compact tombstoned callback entries in place.

        Waiting processes store the index of their callback slot, so the
        compaction re-indexes every live process entry (found through the
        bound method's ``__self__``).
        """
        cbs = self.callbacks
        if cbs is None:
            return
        alive = [cb for cb in cbs if cb is not None]
        cbs[:] = alive
        self._dead = 0
        for i, cb in enumerate(alive):
            owner = getattr(cb, "__self__", None)
            if owner is not None and isinstance(owner, Process) \
                    and owner._target is self:
                owner._tidx = i

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Instances the engine can prove are unreferenced after they fire are
    recycled through :attr:`Environment._timeout_pool` — create timeouts
    via :meth:`Environment.timeout` to benefit.
    """

    __slots__ = ("delay",)

    #: scheduled at construction — shadows the base property
    triggered = True

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which no ordering can place
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._exception = None
        self.defused = False
        self._dead = 0
        self.delay = delay
        env._schedule(self, NORMAL, delay)


class _Initialize(Event):
    """Kicks a freshly created process on the next queue pop."""

    __slots__ = ()

    triggered = True

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._cb]
        self._value = None
        self._exception = None
        self.defused = False
        self._dead = 0
        env._schedule(self, URGENT)


class Process(Event):
    """A running process. It is itself an event that fires on termination.

    Yield a ``Process`` to wait for it; its return value (via ``return`` in
    the generator) becomes the event value.
    """

    __slots__ = ("_generator", "_target", "_tidx", "_cb", "name")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self.defused = False
        self._dead = 0
        self._generator = generator
        #: event we're waiting on, and the index of our callback in it
        self._target: Optional[Event] = None
        self._tidx = -1
        #: the one bound-method object appended to targets — identity is
        #: what makes the O(1) tombstone detach possible
        self._cb = self._resume
        #: the wrapped generator's qualified name, for reprs and errors
        self.name = getattr(generator, "__qualname__", "") \
            or type(generator).__name__
        env._init(self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a terminated process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        ev = Event(self.env)
        ev._exception = Interrupt(cause)
        ev._value = None
        ev.defused = True
        self.env._schedule(ev, URGENT)
        # Detach from whatever we were waiting on, then resume with the
        # interrupt once the injected event is processed.
        target = self._target
        if target is not None:
            self._detach(target)
            self._target = None
        ev.callbacks.append(self._cb)

    def _detach(self, target: Event) -> None:
        """Drop our callback from ``target`` in O(1) via tombstoning."""
        cbs = target.callbacks
        if cbs is None:
            return
        i = self._tidx
        if 0 <= i < len(cbs) and cbs[i] is self._cb:
            cbs[i] = None
            dead = target._dead = target._dead + 1
            if dead > _SWEEP_MIN and dead * 2 >= len(cbs):
                target._sweep()
        else:  # defensive: index went stale (should not happen)
            try:
                cbs.remove(self._cb)
            except ValueError:
                pass

    # -- engine plumbing -------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        env._active = self
        self._target = None
        gen = self._generator
        while True:
            try:
                if event._exception is not None:
                    event.defused = True
                    next_target = gen.throw(event._exception)
                else:
                    next_target = gen.send(event._value)
            except StopIteration as stop:
                self._value = stop.value
                seq = env._seq = env._seq + 1
                env._bn.append((_SPAN + seq, self))
                break
            except BaseException as exc:
                self._exception = exc
                self._value = None
                seq = env._seq = env._seq + 1
                env._bn.append((_SPAN + seq, self))
                break

            if not isinstance(next_target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded non-event "
                    f"{next_target!r}")
                event = Event(env)
                event._exception = exc
                continue  # throw it right back in

            cbs = next_target.callbacks
            if cbs is None:
                # Already done: resume immediately with its outcome.
                event = next_target
                continue

            self._tidx = len(cbs)
            cbs.append(self._cb)
            self._target = next_target
            break
        env._active = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "alive")
        return f"<Process {self.name!r} {state} at {id(self):#x}>"


class _Condition(Event):
    """Base for AllOf/AnyOf composite events.

    The result dict contains only *processed* (delivered) constituent
    events — a pending Timeout scheduled for later never leaks its value in.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self.defused = False
        self._dead = 0
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("events from different environments")
        pending = 0
        already_failed: Optional[BaseException] = None
        any_processed = False
        check = self._check
        for ev in self.events:
            if ev.callbacks is None:
                any_processed = True
                if ev._exception is not None:
                    ev.defused = True
                    already_failed = ev._exception
            else:
                pending += 1
                ev.callbacks.append(check)
        self._pending = pending
        if already_failed is not None:
            self.fail(already_failed)
        else:
            self._maybe_finish(any_processed)

    def _collect(self) -> dict:
        return {
            ev: ev._value for ev in self.events
            if ev.callbacks is None and ev._exception is None
        }

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return
        if event._exception is not None:
            event.defused = True
            self.fail(event._exception)
            return
        self._pending -= 1
        self._maybe_finish(any_processed=True)

    def _maybe_finish(self, any_processed: bool) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired (fails fast on error)."""

    __slots__ = ()

    def _maybe_finish(self, any_processed: bool) -> None:
        if not self.triggered and self._pending <= 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as one constituent event fires."""

    __slots__ = ()

    def _maybe_finish(self, any_processed: bool) -> None:
        if self.triggered:
            return
        if any_processed or not self.events:
            self.succeed(self._collect())


class Environment:
    """Simulation environment: virtual clock plus the event queue.

    Scheduling internals (see the module docstring): future events live
    in a ``(time, key, event)`` min-heap where ``key`` packs ``(priority,
    seq)``; events scheduled at the *current* instant go to per-priority
    FIFO deques (``_bu`` urgent, ``_bn`` normal) that are always drained
    before the clock can advance, so heap churn is paid only for real
    timestamp changes. Pop order is that of one ``(time, priority, seq)``
    heap.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: future events: (time, priority * _SPAN + seq, event) min-heap
        self._queue: list = []
        self._seq = 0
        self._active: Optional[Process] = None
        #: same-instant FIFO buckets: (key, event) per priority
        self._bu: list = []  # URGENT
        self._bn: list = []  # NORMAL
        #: cursor of already-popped entries at the bucket heads (cheaper
        #: than popleft-style shifting; reset whenever both drain)
        self._bu_head = 0
        self._bn_head = 0
        #: free lists of proven-unreferenced fired events
        self._timeout_pool: list = []
        self._init_pool: list = []
        self._event_pool: list = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            # recycled state: callbacks is a parked empty list; restore
            # the pristine pending state
            ev._value = _PENDING
            ev._exception = None
            ev.defused = False
            return ev
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` for ``delay``, recycled from the free list
        when one is available."""
        pool = self._timeout_pool
        if pool:
            if not delay >= 0:
                raise ValueError(f"delay must be >= 0, got {delay!r}")
            to = pool.pop()
            # recycled state: callbacks is a parked empty list,
            # _exception is None (timeouts cannot fail)
            to._value = value
            to.defused = False
            to.delay = delay
            seq = self._seq = self._seq + 1
            if delay and self._now + delay > self._now:
                heappush(self._queue,
                         (self._now + delay, _SPAN + seq, to))
            else:
                self._bn.append((_SPAN + seq, to))
            return to
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a process; returns its Process event."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _init(self, process: Process) -> None:
        """Schedule a process's kick-off event (pooled)."""
        pool = self._init_pool
        if pool:
            ev = pool.pop()
            ev.callbacks.append(process._cb)
            self._schedule(ev, URGENT)
        else:
            _Initialize(self, process)

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        seq = self._seq = self._seq + 1
        if delay:
            t = self._now + delay
            if t > self._now:
                heappush(self._queue, (t, priority * _SPAN + seq, event))
                return
            # fell back to "now" (float underflow against a large clock):
            # same-instant handling below keeps (priority, seq) order
        if priority == 1:
            self._bn.append((_SPAN + seq, event))
        elif priority == 0:
            self._bu.append((seq, event))
        else:
            heappush(self._queue, (self._now, priority * _SPAN + seq, event))

    def peek(self) -> float:
        """Time of the next event, or ``inf`` when the queue is empty."""
        if self._bu_head < len(self._bu) or self._bn_head < len(self._bn):
            return self._now
        q = self._queue
        return q[0][0] if q else _INF

    def _pop(self) -> Optional[Event]:
        """Remove and return the next event in (time, priority, seq)
        order, advancing the clock; None when nothing is scheduled."""
        q = self._queue
        bu, bu_head = self._bu, self._bu_head
        bn, bn_head = self._bn, self._bn_head
        if bu_head < len(bu):
            bucket, head, key = bu, bu_head, bu[bu_head][0]
        elif bn_head < len(bn):
            bucket, head, key = bn, bn_head, bn[bn_head][0]
        else:
            if bu_head:
                bu.clear()
                self._bu_head = 0
            if bn_head:
                bn.clear()
                self._bn_head = 0
            if not q:
                return None
            when, _key, event = heappop(q)
            self._now = when
            return event
        # A heap entry at this same instant predates every bucket entry
        # of its own priority but may still outrank the bucket head.
        if q:
            top = q[0]
            if top[0] == self._now and top[1] < key:
                heappop(q)
                event = top[2]
                return event
        entry = bucket[head]
        bucket[head] = None  # drop the ref; cursor-based drain
        if bucket is bu:
            self._bu_head = head + 1
        else:
            self._bn_head = head + 1
        return entry[1]

    def step(self) -> None:
        """Process exactly one event."""
        event = self._pop()
        if event is None:
            raise SimulationError("no scheduled events")
        callbacks = event.callbacks
        event.callbacks = None
        if callbacks:
            for cb in callbacks:
                if cb is not None:
                    cb(event)
        if event._exception is not None and not event.defused:
            raise event._exception
        # Recycle engine-internal churn the moment it is provably
        # unreferenced: exactly two refs means "this local + the
        # getrefcount argument" — no process, condition, or user code
        # holds the event, so reuse cannot be observed.
        cls = event.__class__
        if cls is Timeout:
            if getrefcount(event) == 2 and \
                    len(self._timeout_pool) < _POOL_MAX:
                callbacks.clear()
                event.callbacks = callbacks  # park the list for reuse
                event._value = None
                event._dead = 0
                self._timeout_pool.append(event)
        elif cls is _Initialize:
            if getrefcount(event) == 2 and \
                    len(self._init_pool) < _POOL_MAX:
                callbacks.clear()
                event.callbacks = callbacks
                event._value = None
                event._dead = 0
                self._init_pool.append(event)
        elif cls is Event:
            if getrefcount(event) == 2 and \
                    len(self._event_pool) < _POOL_MAX:
                callbacks.clear()
                event.callbacks = callbacks
                event._value = None
                event._exception = None
                event._dead = 0
                self._event_pool.append(event)

    def _empty(self) -> bool:
        return not (self._queue or self._bu_head < len(self._bu)
                    or self._bn_head < len(self._bn))

    def _drain(self) -> None:
        """Run until nothing is scheduled — the hot full-drain loop.

        Semantically identical to ``while not _empty(): step()`` but with
        pop, dispatch, and recycling fused into one frame so the engine
        pays zero method-call overhead per event. Bucket cursors are
        written back before callbacks run, so callbacks observing
        ``peek()``/scheduling new events see consistent state.
        """
        q = self._queue
        bu, bn = self._bu, self._bn
        pool_t, pool_i = self._timeout_pool, self._init_pool
        pool_e = self._event_pool
        while True:
            # -- pop (mirrors _pop) -----------------------------------
            bu_head, bn_head = self._bu_head, self._bn_head
            event = None
            if bu_head < len(bu):
                bucket, head, key = bu, bu_head, bu[bu_head][0]
            elif bn_head < len(bn):
                bucket, head, key = bn, bn_head, bn[bn_head][0]
            else:
                if bu_head:
                    bu.clear()
                    self._bu_head = 0
                if bn_head:
                    bn.clear()
                    self._bn_head = 0
                if not q:
                    return
                when, _key, event = heappop(q)
                self._now = when
            if event is None:
                if q:
                    top = q[0]
                    if top[0] == self._now and top[1] < key:
                        heappop(q)
                        event = top[2]
                    # drop the peeked tuple in every path — a stale ref
                    # here would defeat the refcount-proven recycling of
                    # the next heap-popped event
                    top = None
                if event is None:
                    event = bucket[head][1]
                    bucket[head] = None
                    if bucket is bu:
                        self._bu_head = head + 1
                    else:
                        self._bn_head = head + 1
                bucket = None
            # -- dispatch (mirrors step) ------------------------------
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for cb in callbacks:
                    if cb is not None:
                        cb(event)
            if event._exception is not None and not event.defused:
                raise event._exception
            cls = event.__class__
            if cls is Timeout:
                if getrefcount(event) == 2 and len(pool_t) < _POOL_MAX:
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = None
                    event._dead = 0
                    pool_t.append(event)
            elif cls is _Initialize:
                if getrefcount(event) == 2 and len(pool_i) < _POOL_MAX:
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = None
                    event._dead = 0
                    pool_i.append(event)
            elif cls is Event:
                if getrefcount(event) == 2 and len(pool_e) < _POOL_MAX:
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = None
                    event._exception = None
                    event._dead = 0
                    pool_e.append(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be a number (absolute simulated time) or an event —
        in the latter case the event's value is returned.
        """
        stop_event: Optional[Event] = None
        deadline = _INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(
                    f"until={deadline} is in the past (now={self._now})")

        if stop_event is None and deadline == _INF:
            self._drain()
            return None
        step = self.step

        while not self._empty():
            if stop_event is not None and stop_event.callbacks is None:
                return stop_event.value
            if self.peek() > deadline:
                self._now = deadline
                return None
            step()

        if stop_event is not None:
            if stop_event.callbacks is None:
                return stop_event.value
            raise SimulationError(
                "run(until=event) exhausted the queue before the event fired")
        if deadline != _INF:
            self._now = deadline
        return None
