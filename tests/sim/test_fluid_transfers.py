"""Idle-pipe closed-form admission on SharedBandwidth.

A transfer admitted to an idle pipe is one closed-form completion
timeout instead of a heap entry. The contract, held against the naive
rescan oracle: uncontended transfers are *bit-identical* (same events,
same times, same observer sequence, same accounting), and a second
arrival re-expands the in-flight transfer with its exact remaining
bytes so contention is still modelled precisely.
"""

import pytest

from repro.sim.engine import Environment
from repro.sim.resources import SharedBandwidth

from tests.oracles import NaiveSharedBandwidth


def _uncontended_world(pipe_cls):
    env = Environment()
    pipe = pipe_cls(env, capacity=100.0)
    observer_calls = []
    pipe.observer = observer_calls.append
    completions = []

    def one(name, at, nbytes, latency=0.0):
        yield env.timeout(at)
        yield pipe.transfer(nbytes, latency=latency)
        completions.append((name, env.now))

    # strictly serial arrivals: the pipe is idle at every admission
    env.process(one("a", 0.0, 500.0))
    env.process(one("b", 10.0, 250.0, latency=0.5))
    env.process(one("c", 20.0, 100.0))
    env.run()
    return {
        "completions": completions,
        "observer_calls": observer_calls,
        "busy_time": pipe.busy_time,
        "bytes_moved": pipe.bytes_moved,
        "utilization": pipe.utilization(),
        "now": env.now,
        "n_events": env._seq,
    }


def test_fluid_uncontended_bit_identical_to_ps():
    ps = _uncontended_world(NaiveSharedBandwidth)
    fl = _uncontended_world(SharedBandwidth)
    assert fl == ps  # exact: same events, clocks, observers, accounting


def _contended_world(pipe_cls):
    env = Environment()
    pipe = pipe_cls(env, capacity=100.0)
    completions = {}

    def one(name, at, nbytes):
        yield env.timeout(at)
        yield pipe.transfer(nbytes)
        completions[name] = env.now

    # "b" arrives mid-flight: "a" must re-expand into the heap with
    # exactly its remaining bytes (1000 - 2s*100 = 800)
    env.process(one("a", 0.0, 1000.0))
    env.process(one("b", 2.0, 300.0))
    env.process(one("c", 30.0, 100.0))  # idle again by then
    env.run()
    return completions, pipe.busy_time, pipe.bytes_moved


def test_fluid_collapse_preserves_ps_timings():
    ps_done, ps_busy, ps_bytes = _contended_world(NaiveSharedBandwidth)
    fl_done, fl_busy, fl_bytes = _contended_world(SharedBandwidth)
    assert fl_done.keys() == ps_done.keys()
    for name in ps_done:
        assert fl_done[name] == pytest.approx(ps_done[name], abs=1e-9)
    assert fl_busy == pytest.approx(ps_busy, abs=1e-9)
    assert fl_bytes == ps_bytes


def test_fluid_n_active_counts_inflight_transfer():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=100.0)
    snapshots = []

    def mover():
        yield pipe.transfer(500.0)
        snapshots.append(("done", pipe.n_active, env.now))

    def sampler():
        yield env.timeout(1.0)
        snapshots.append(("mid", pipe.n_active, env.now))

    env.process(mover())
    env.process(sampler())
    env.run()
    assert snapshots == [("mid", 1, 1.0), ("done", 0, 5.0)]
