"""Bounded-window fan-out: the data path's pipelining primitive.

:func:`bounded_fanout` drives a list of process *factories* keeping at
most ``max_inflight`` of them running at once — the sliding-window
request issue the paper's parallel PFS readers rely on. Results come
back in input order regardless of completion order.

``max_inflight <= 0`` (or a window at least as large as the input) is
the unbounded fan-out: every process is created up front and awaited
with a single :class:`AllOf`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence

from repro.sim.engine import AllOf, AnyOf, Environment, Event

__all__ = ["FanoutWindow", "bounded_fanout"]


def bounded_fanout(env: Environment, factories: Sequence[Callable],
                   max_inflight: int = 0):
    """Run ``factories`` (thunks returning DES generators) with at most
    ``max_inflight`` concurrently in flight. DES process returning the
    results in input order.

    Use with ``yield from`` to keep the window loop inside the calling
    process, or wrap in ``env.process(...)`` to run it standalone. A
    failing constituent propagates its exception (fail-fast, like
    :class:`AllOf`); processes already in flight keep running.
    """
    factories = list(factories)
    if not factories:
        return []
    if max_inflight <= 0 or max_inflight >= len(factories):
        procs = [env.process(factory()) for factory in factories]
        done = yield AllOf(env, procs)
        return [done[proc] for proc in procs]
    results: list = [None] * len(factories)
    inflight: dict = {}  # Process -> input index
    issued = 0
    while issued < len(factories) or inflight:
        while issued < len(factories) and len(inflight) < max_inflight:
            proc = env.process(factories[issued]())
            inflight[proc] = issued
            issued += 1
        yield AnyOf(env, list(inflight))
        finished = [proc for proc in inflight if proc.triggered]
        for proc in finished:
            results[inflight.pop(proc)] = proc.value
    return results


class FanoutWindow:
    """An *open-ended* bounded window: :func:`bounded_fanout` for work
    that is discovered over time rather than known up front.

    Producers :meth:`submit` process factories as work appears (e.g. a
    reducer submitting a fetch for each map output the moment it
    commits); at most ``max_inflight`` run concurrently, the rest queue.
    After :meth:`close`, :meth:`drain` (a DES generator — use with
    ``yield from``) waits for everything and returns results in
    submission order. A failing constituent is re-raised from
    :meth:`drain` at the first opportunity (fail-fast); siblings
    already in flight keep running, like :func:`bounded_fanout`.

    ``max_inflight <= 0`` runs everything submitted immediately
    (unbounded).
    """

    def __init__(self, env: Environment, max_inflight: int = 0):
        self._env = env
        self._max = max_inflight
        self._queue: deque = deque()  # (index, factory) not yet started
        self._active = 0
        self._results: list = []
        self._completed = 0
        self._closed = False
        self._failure: Optional[BaseException] = None
        self._stir: Optional[Event] = None  # wakes a blocked drain()

    @property
    def submitted(self) -> int:
        return len(self._results)

    def submit(self, factory: Callable) -> int:
        """Queue one process factory; returns its result index."""
        if self._closed:
            raise RuntimeError("submit() after close()")
        index = len(self._results)
        self._results.append(None)
        self._queue.append((index, factory))
        self._fill()
        return index

    def close(self) -> None:
        """No more submissions; lets :meth:`drain` finish."""
        self._closed = True
        self._wake()

    def _fill(self) -> None:
        while self._queue and (self._max <= 0 or self._active < self._max):
            index, factory = self._queue.popleft()
            self._active += 1
            self._env.process(self._run(index, factory))

    def _wake(self) -> None:
        if self._stir is not None and not self._stir.triggered:
            self._stir.succeed()

    def _run(self, index: int, factory: Callable):
        # Failures are captured, not raised, so an un-watched fetch
        # cannot escape env.step() while the consumer waits elsewhere;
        # drain() re-raises the first one.
        try:
            self._results[index] = yield from factory()
        except BaseException as exc:
            if self._failure is None:
                self._failure = exc
        finally:
            self._active -= 1
            self._completed += 1
            self._fill()
            self._wake()

    def drain(self):
        """DES generator: block until closed and fully completed, then
        return all results in submission order."""
        while True:
            if self._failure is not None:
                raise self._failure
            if self._closed and not self._queue \
                    and self._completed == len(self._results):
                return list(self._results)
            self._stir = Event(self._env)
            yield self._stir
            self._stir = None
