"""Tests for the metrics registry and device utilisation sampling."""

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    attach_metrics,
    metrics_of,
)
from repro.sim import Environment
from repro.sim.resources import SharedBandwidth


def test_counter_monotonic():
    reg = MetricsRegistry(Environment())
    c = reg.counter("bytes")
    c.inc(10)
    c.inc()
    assert c.value == 11
    with pytest.raises(ValueError):
        c.inc(-1)
    assert reg.counter("bytes") is c


def test_gauge_time_average():
    env = Environment()
    reg = attach_metrics(env)
    g = reg.gauge("load")

    def proc():
        g.set(0.0)
        yield env.timeout(4)
        g.set(10.0)
        yield env.timeout(4)

    env.process(proc())
    env.run()
    assert g.last == 10.0
    assert g.time_average() == pytest.approx(5.0)


def test_watch_pipe_samples_in_flight_on_membership_changes():
    env = Environment()
    reg = attach_metrics(env)
    pipe = SharedBandwidth(env, capacity=100.0, name="nic")
    reg.watch_pipe(pipe)

    def proc():
        a = pipe.transfer(100)   # alone: 1s
        b = pipe.transfer(100)
        yield a
        yield b

    env.process(proc())
    env.run()
    monitors = dict(reg.device_monitors())
    mon = monitors["nic"]
    # initial seed, two admissions, two completions
    assert mon.values[0] == 0.0
    assert max(mon.values) == 2.0
    assert mon.values[-1] == 0.0
    assert mon.time_average() > 0.0


def test_watch_pipe_is_idempotent_and_names_anonymous_pipes():
    env = Environment()
    reg = MetricsRegistry(env)
    named = SharedBandwidth(env, capacity=1.0, name="nic")
    anon = SharedBandwidth(env, capacity=1.0)
    reg.watch_pipe(named)
    reg.watch_pipe(named)
    reg.watch_pipe(anon)
    labels = [label for label, _m in reg.device_monitors()]
    assert labels == ["nic", "pipe1"]


def test_device_rows_report_bytes_and_utilization():
    env = Environment()
    reg = attach_metrics(env)
    pipe = SharedBandwidth(env, capacity=100.0, name="disk")
    reg.watch_pipe(pipe)

    def proc():
        yield pipe.transfer(100)   # busy [0, 1)
        yield env.timeout(1)       # idle [1, 2)

    env.process(proc())
    env.run()
    (row,) = reg.device_rows()
    assert row["device"] == "disk"
    assert row["capacity_bps"] == 100.0
    assert row["bytes_moved"] == 100.0
    assert row["busy_seconds"] == pytest.approx(1.0)
    assert row["utilization"] == pytest.approx(0.5)
    assert row["mean_in_flight"] == pytest.approx(0.5)


def test_unwatched_pipe_has_no_observer_overhead():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=100.0)
    assert pipe.observer is None

    def proc():
        yield pipe.transfer(100)

    env.process(proc())
    env.run()
    assert pipe.observer is None   # nothing attached one behind our back


def test_attach_metrics_idempotent_and_metrics_of():
    env = Environment()
    assert metrics_of(env) is None
    reg = attach_metrics(env)
    assert attach_metrics(env) is reg
    assert metrics_of(env) is reg


def test_as_dict_snapshot():
    env = Environment()
    reg = attach_metrics(env)
    reg.counter("n").inc(2)
    reg.gauge("g").set(1.0)
    snap = reg.as_dict()
    assert snap["counters"] == {"n": 2.0}
    assert snap["gauges"]["g"]["last"] == 1.0
    assert snap["devices"] == []
