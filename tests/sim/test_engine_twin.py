"""Event order of the engine, pinned to a recorded digest.

The engine's optimisations (slotted events, pooled free-lists, same-time
FIFO buckets, tombstone detach) must not move an event: every simulation
pops the same events in the same order at the same clocks as one plain
``(time, priority, seq)`` heap. These tests drive a seeded random
program — mixed timeouts, zero-delay handoffs, manual events, process
joins, AllOf/AnyOf conditions, and interrupts — and hold the execution
trace to ``tests/golden/sim.json``, recorded from such a heap engine.
"""

import random

import pytest

from repro.sim.engine import Environment, Interrupt

from tests.golden import digest, load_golden

GOLDEN = load_golden("sim")


def _make_script(seed, n_workers=12, n_steps=8, n_gates=3):
    """Every random choice of the program, drawn up front from ``seed``."""
    rng = random.Random(seed)
    kinds = ["timeout", "zero", "gate", "spawn", "both", "either"]
    script = [[(rng.choice(kinds), round(rng.uniform(0.1, 3.0), 3))
               for _ in range(n_steps)]
              for _ in range(n_workers)]
    snipes = [(rng.randrange(n_workers), round(rng.uniform(0.5, 6.0), 3))
              for _ in range(n_workers // 2)]
    gate_fires = [round(rng.uniform(1.0, 8.0), 3) for _ in range(n_gates)]
    return script, snipes, gate_fires


def _run_chaos(seed):
    """Drive the seeded program; returns (trace, final clock, seq)."""
    env = Environment()
    script, snipes, gate_fires = _make_script(seed)
    gates = [env.event() for _ in gate_fires]
    trace = []

    def child(delay, tag):
        yield env.timeout(delay)
        trace.append(("child", tag, env.now))
        return tag

    def worker(wid, steps):
        try:
            for i, (kind, delay) in enumerate(steps):
                if kind == "timeout":
                    yield env.timeout(delay)
                elif kind == "zero":
                    yield env.timeout(0.0)
                elif kind == "gate":
                    gate = gates[(wid + i) % len(gates)]
                    yield env.any_of([gate, env.timeout(delay)])
                elif kind == "spawn":
                    value = yield env.process(child(delay / 2, (wid, i)))
                    trace.append(("joined", value, env.now))
                elif kind == "both":
                    yield env.all_of([env.timeout(delay),
                                      env.timeout(delay / 3)])
                else:  # either
                    yield env.any_of([env.timeout(delay),
                                      env.timeout(delay * 2)])
                trace.append(("step", wid, i, env.now))
        except Interrupt as intr:
            trace.append(("interrupted", wid, intr.cause, env.now))

    workers = [env.process(worker(w, steps))
               for w, steps in enumerate(script)]

    def firer(i, at):
        yield env.timeout(at)
        gates[i].succeed(("gate", i))
        trace.append(("fired", i, env.now))

    for i, at in enumerate(gate_fires):
        env.process(firer(i, at))

    def sniper(k, target, at):
        yield env.timeout(at)
        if workers[target].is_alive:
            workers[target].interrupt(f"preempt-{k}")
            trace.append(("sniped", target, env.now))

    for k, (target, at) in enumerate(snipes):
        env.process(sniper(k, target, at))

    env.run()
    return trace, env.now, env._seq


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 2024])
def test_randomized_twin_world_identical_order(seed):
    trace, now, seq = _run_chaos(seed)
    want = GOLDEN["chaos"][str(seed)]
    assert len(trace) == want["records"]
    # every record ends with the clock; everything before it is discrete
    # (tags, ids, causes). The clocks are sums of the script's 3-decimal
    # delays in pop order, so their exact reprs are part of the order.
    assert digest([rec[:-1] for rec in trace]) == want["order_crc"]
    assert digest([rec[-1] for rec in trace]) == want["clock_crc"]
    assert now == pytest.approx(want["now"], abs=1e-9)
    assert seq == want["seq"]  # same number of scheduler insertions


def test_twin_world_exception_surfaces_identically():
    env = Environment()

    def victim():
        yield env.timeout(2.5)
        raise RuntimeError("spilled the shuffle")

    def bystander():
        yield env.timeout(1.0)

    env.process(bystander())
    env.process(victim())
    with pytest.raises(RuntimeError, match="spilled the shuffle"):
        env.run()
    assert env.now == pytest.approx(GOLDEN["exception_now"], abs=1e-9)


# one parameter left of two (the other engine is gone); kept for the test id
@pytest.mark.parametrize("env_cls", [pytest.param(Environment, id="live")])
def test_zero_delay_handoffs_preserve_fifo(env_cls):
    """Delay-0 timeouts at one timestamp fire in schedule order."""
    env = env_cls()
    order = []

    def hop(name):
        yield env.timeout(1.0)
        for i in range(3):
            yield env.timeout(0.0)
        order.append(name)

    for name in "abcde":
        env.process(hop(name))
    env.run()
    assert order == list("abcde")
    assert env.now == 1.0


def test_pooled_events_do_not_leak_state():
    """Recycled Timeout/Event objects must come back clean.

    Runs enough churn that the free-lists are exercised, with values and
    callbacks attached to some events, and checks no value or callback
    bleeds into a later, unrelated event.
    """
    env = Environment()
    got = []

    def churn(i):
        v = yield env.timeout(0.1, value=("payload", i))
        got.append(v)
        bare = yield env.timeout(0.1)
        assert bare is None  # recycled event must not carry an old value
        ev = env.event()
        ev.succeed()
        yield ev
        assert ev.value is None

    for i in range(200):
        env.process(churn(i))
    env.run()
    assert got == [("payload", i) for i in range(200)]
