"""SharedBandwidth vs the naive O(n)-rescan oracle.

Virtual time and the idle-pipe closed form must be invisible at the
simulation level: identical completion times and order on arbitrary
schedules, identical busy-time accounting and observer calls, and no
livelock on the sub-byte-residue edge. The seeded schedules admit
transfers while a lone one is in flight, so every run exercises the
re-expansion into the heap.
"""

import random

import pytest

from repro.sim import Environment, SharedBandwidth

from tests.oracles import NaiveSharedBandwidth


def drive_schedule(pipe_cls, schedule, capacity=100.0):
    """Run (delay, nbytes, latency) triples; return [(idx, finish)]."""
    env = Environment()
    pipe = pipe_cls(env, capacity, "pipe")
    pipe.observed = []
    pipe.observer = lambda n: pipe.observed.append((n, pipe.n_active))
    done = []

    def one(idx, delay, nbytes, latency):
        yield env.timeout(delay)
        yield pipe.transfer(nbytes, latency=latency)
        done.append((idx, env.now))

    for idx, (delay, nbytes, latency) in enumerate(schedule):
        env.process(one(idx, delay, nbytes, latency))
    env.run()
    return done, pipe


def assert_same_run(live, naive):
    (new, new_pipe), (old, old_pipe) = live, naive
    assert [i for i, _ in new] == [i for i, _ in old]
    for (_, t_new), (_, t_old) in zip(new, old):
        assert t_new == pytest.approx(t_old, abs=1e-9)
    assert new_pipe.bytes_moved == old_pipe.bytes_moved
    assert new_pipe.busy_time == pytest.approx(old_pipe.busy_time, abs=1e-9)
    # every membership change reports the same in-flight count, and
    # n_active agrees with it at the moment of the call
    assert new_pipe.observed == old_pipe.observed
    assert new_pipe.n_active == old_pipe.n_active == 0


HAND_SCHEDULES = [
    # lone transfer
    [(0.0, 500, 0.0)],
    # two equal, simultaneous
    [(0.0, 500, 0.0), (0.0, 500, 0.0)],
    # staggered join (the docstring example: a=8, b=10)
    [(0.0, 500, 0.0), (2.0, 500, 0.0)],
    # latency-delayed admission mixed with direct admissions
    [(0.0, 100, 3.0), (1.0, 200, 0.0), (1.0, 50, 0.5)],
    # zero-byte transfers complete instantly amid real ones
    [(0.0, 0, 0.0), (0.0, 300, 0.0), (0.5, 0, 0.0)],
]


@pytest.mark.parametrize("schedule", HAND_SCHEDULES)
def test_hand_schedules_match_legacy(schedule):
    assert_same_run(drive_schedule(SharedBandwidth, schedule),
                    drive_schedule(NaiveSharedBandwidth, schedule))


@pytest.mark.parametrize("seed", [1, 7, 20180710])
def test_randomized_schedules_match_legacy(seed):
    rng = random.Random(seed)
    schedule = [
        (rng.random() * 5.0,
         rng.randrange(0, 100_000),
         rng.choice([0.0, 0.0, rng.random() * 0.01]))
        for _ in range(200)
    ]
    assert_same_run(
        drive_schedule(SharedBandwidth, schedule, capacity=1e6),
        drive_schedule(NaiveSharedBandwidth, schedule, capacity=1e6))


def test_completion_order_follows_admission_on_ties():
    """Equal-size simultaneous transfers finish in admission order."""
    env = Environment()
    pipe = SharedBandwidth(env, 100.0)
    order = []

    def one(i):
        yield pipe.transfer(100)
        order.append(i)

    for i in range(8):
        env.process(one(i))
    env.run()
    assert order == list(range(8))


def test_sub_byte_residue_does_not_livelock():
    """Regression for the force-finish branch.

    At a huge ``now`` a tiny residual drain time underflows
    (``now + delay == now``); without the force-finish floor the pipe
    would reschedule the same instant forever. The engine would spin —
    so the real assertion is simply that ``env.run()`` returns.
    """
    env = Environment(initial_time=1e10)
    pipe = SharedBandwidth(env, capacity=1e9)
    done = []

    def one(nbytes, delay):
        yield env.timeout(delay)
        yield pipe.transfer(nbytes)
        done.append(env.now)

    # The overlap leaves residues far below the float resolution of
    # `now` (~2e-6 s at 1e10): 1e-7-scale drains quantize to zero.
    env.process(one(100.0, 0.0))
    env.process(one(100.0 + 1e-4, 0.0))
    env.process(one(0.5, 0.0))
    env.run()
    assert len(done) == 3
    assert all(t >= 1e10 for t in done)


def test_sub_byte_residue_livelock_legacy_parity():
    """The naive model terminates on the same edge case; both agree."""
    def run(pipe_cls):
        env = Environment(initial_time=1e10)
        pipe = pipe_cls(env, capacity=1e9)
        done = []

        def one(nbytes):
            yield pipe.transfer(nbytes)
            done.append(env.now)

        for nbytes in (100.0, 100.0 + 1e-4, 0.5):
            env.process(one(nbytes))
        env.run()
        return done

    new = run(SharedBandwidth)
    old = run(NaiveSharedBandwidth)
    assert len(new) == len(old) == 3
    for t_new, t_old in zip(new, old):
        assert t_new == pytest.approx(t_old, abs=1e-6)


def test_vtime_resets_when_pipe_idles():
    """Idle reset keeps the counter bounded over long runs."""
    env = Environment()
    pipe = SharedBandwidth(env, 100.0)

    def one():
        yield pipe.transfer(200)
        yield env.timeout(5)
        yield pipe.transfer(200)

    env.process(one())
    env.run()
    assert pipe._vtime == 0.0
    assert pipe.n_active == 0
