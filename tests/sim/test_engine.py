"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(5.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [5.0]
    assert env.now == 5.0


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc():
        v = yield env.timeout(1.0, value="hello")
        got.append(v)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_nan_delay_rejected(wall_clock_guard):
    """NaN sorts nowhere: filed as a zero delay it would fire at once,
    whatever the caller meant. Both construction paths refuse it."""
    env = Environment()
    nan = float("nan")
    with pytest.raises(ValueError, match="delay must be >= 0, got nan"):
        env.timeout(nan)  # empty pool: Timeout.__init__
    env.timeout(1.0)
    env.run()
    assert env._timeout_pool  # the fired timeout was recycled
    with pytest.raises(ValueError, match="delay must be >= 0, got nan"):
        env.timeout(nan)  # pooled path
    env.run(until=1000)
    assert env.now == 1000


def test_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append((name, env.now))

    env.process(proc("a", 3))
    env.process(proc("b", 1))
    env.process(proc("c", 2))
    env.run()
    assert order == [("b", 1), ("c", 2), ("a", 3)]


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in "abcde":
        env.process(proc(name))
    env.run()
    assert order == list("abcde")


def test_process_return_value_propagates():
    env = Environment()
    results = []

    def child():
        yield env.timeout(2)
        return 42

    def parent():
        value = yield env.process(child())
        results.append((value, env.now))

    env.process(parent())
    env.run()
    assert results == [(42, 2.0)]


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()
    seen = []

    def child():
        yield env.timeout(1)
        return "done"

    def parent(child_proc):
        yield env.timeout(5)
        value = yield child_proc  # already processed
        seen.append((value, env.now))

    cp = env.process(child())
    env.process(parent(cp))
    env.run()
    assert seen == [("done", 5.0)]


def test_exception_in_child_propagates_to_parent():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1)
        raise RuntimeError("boom")

    def parent():
        try:
            yield env.process(child())
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_run_until_time_stops_clock_there():
    env = Environment()

    def proc():
        yield env.timeout(100)

    env.process(proc())
    env.run(until=10)
    assert env.now == 10


def test_run_until_event_returns_value():
    env = Environment()

    def child():
        yield env.timeout(3)
        return "payload"

    proc = env.process(child())
    assert env.run(until=proc) == "payload"
    assert env.now == 3


def test_run_until_past_time_rejected():
    env = Environment()

    def proc():
        yield env.timeout(5)

    env.process(proc())
    env.run()
    with pytest.raises(ValueError):
        env.run(until=1)


def test_yield_non_event_raises_inside_process():
    env = Environment()
    caught = []

    def proc():
        try:
            yield 12345
        except SimulationError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught and "non-event" in caught[0]


def test_event_manual_succeed():
    env = Environment()
    got = []

    def waiter(ev):
        value = yield ev
        got.append((value, env.now))

    def firer(ev):
        yield env.timeout(7)
        ev.succeed("fired")

    ev = env.event()
    env.process(waiter(ev))
    env.process(firer(ev))
    env.run()
    assert got == [("fired", 7.0)]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_allof_waits_for_all():
    env = Environment()
    got = []

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        result = yield AllOf(env, [t1, t2])
        got.append((sorted(result.values()), env.now))

    env.process(proc())
    env.run()
    assert got == [(["a", "b"], 5.0)]


def test_anyof_fires_on_first():
    env = Environment()
    got = []

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = yield AnyOf(env, [t1, t2])
        got.append((list(result.values()), env.now))

    env.process(proc())
    env.run()
    assert got == [(["fast"], 1.0)]


def test_allof_empty_fires_immediately():
    env = Environment()
    got = []

    def proc():
        result = yield env.all_of([])
        got.append((result, env.now))

    env.process(proc())
    env.run()
    assert got == [({}, 0.0)]


def test_interrupt_delivers_cause():
    env = Environment()
    seen = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            seen.append((intr.cause, env.now))

    def attacker(proc):
        yield env.timeout(2)
        proc.interrupt("preempted")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert seen == [("preempted", 2.0)]


def test_cannot_interrupt_dead_process():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_peek_reports_next_event_time():
    env = Environment()

    def proc():
        yield env.timeout(4)

    env.process(proc())
    env.step()  # consume the initialize event
    assert env.peek() == 4.0


def test_nested_process_chain_depth():
    env = Environment()
    trace = []

    def level(n):
        if n > 0:
            yield env.process(level(n - 1))
        yield env.timeout(1)
        trace.append(n)

    env.process(level(5))
    env.run()
    assert trace == [0, 1, 2, 3, 4, 5]
    assert env.now == 6.0
