"""Tests for monitors."""

import pytest

from repro.sim import Environment, Monitor


def test_monitor_records_time_and_value():
    env = Environment()
    mon = Monitor(env, "util")

    def proc():
        mon.record(1.0)
        yield env.timeout(2)
        mon.record(3.0)
        yield env.timeout(2)
        mon.record(5.0)

    env.process(proc())
    env.run()
    assert mon.times == [0.0, 2.0, 4.0]
    assert mon.values == [1.0, 3.0, 5.0]
    assert len(mon) == 3


def test_monitor_statistics():
    env = Environment()
    mon = Monitor(env)
    for v in (2.0, 4.0, 6.0):
        mon.record(v)
    assert mon.mean == 4.0
    assert mon.minimum == 2.0
    assert mon.maximum == 6.0
    assert mon.stdev == pytest.approx(2.0)


def test_monitor_stdev_single_sample_is_zero():
    env = Environment()
    mon = Monitor(env)
    mon.record(7.0)
    assert mon.stdev == 0.0


def test_monitor_empty_mean_raises():
    env = Environment()
    mon = Monitor(env, "empty")
    with pytest.raises(ValueError):
        _ = mon.mean
    with pytest.raises(ValueError):
        mon.time_average()


def test_monitor_empty_extrema_raise_with_name():
    env = Environment()
    mon = Monitor(env, "net.util")
    for attr in ("minimum", "maximum", "last"):
        with pytest.raises(ValueError, match="net.util"):
            getattr(mon, attr)


def test_monitor_last():
    env = Environment()
    mon = Monitor(env)
    mon.record(3.0)
    mon.record(1.0)
    assert mon.last == 1.0


def test_monitor_time_average_step_function():
    env = Environment()
    mon = Monitor(env)

    def proc():
        mon.record(0.0)        # value 0 held [0, 4)
        yield env.timeout(4)
        mon.record(10.0)       # value 10 held [4, 8)
        yield env.timeout(4)

    env.process(proc())
    env.run()
    assert mon.time_average() == pytest.approx(5.0)
    # Explicit horizon extends the last value's hold.
    assert mon.time_average(until=12) == pytest.approx(
        (0 * 4 + 10 * 8) / 12)


def test_monitor_time_average_zero_span():
    env = Environment()
    mon = Monitor(env)
    mon.record(42.0)
    assert mon.time_average() == 42.0


def test_monitor_record_many_lists():
    env = Environment()
    mon = Monitor(env)
    mon.record_many([0.0, 1.0, 2.5], [10, 20, 30])
    assert mon.times == [0.0, 1.0, 2.5]
    assert mon.values == [10.0, 20.0, 30.0]
    assert mon.mean == 20.0


def test_monitor_record_many_numpy_arrays():
    np = pytest.importorskip("numpy")
    env = Environment()
    mon = Monitor(env)
    mon.record_many(np.arange(4, dtype=np.float64),
                    np.array([1, 2, 3, 4], dtype=np.int64))
    assert mon.times == [0.0, 1.0, 2.0, 3.0]
    assert mon.values == [1.0, 2.0, 3.0, 4.0]


def test_monitor_record_many_misaligned_rejected():
    np = pytest.importorskip("numpy")
    env = Environment()
    mon = Monitor(env)
    with pytest.raises(ValueError):
        mon.record_many([0.0, 1.0], [5.0])
    with pytest.raises(ValueError):
        mon.record_many(np.zeros(2), np.zeros(3))
    assert len(mon) == 0


def test_monitor_record_many_interleaves_with_record():
    env = Environment()
    mon = Monitor(env)

    def proc():
        mon.record(1.0)
        yield env.timeout(2)
        mon.record_many([2.0, 2.0], [5.0, 7.0])
        mon.record(9.0)

    env.process(proc())
    env.run()
    assert mon.times == [0.0, 2.0, 2.0, 2.0]
    assert mon.values == [1.0, 5.0, 7.0, 9.0]
    assert mon.last == 9.0


def test_monitor_survives_column_flush_boundary():
    """The cached chunk buffers stay valid across FloatColumn flushes."""
    env = Environment()
    mon = Monitor(env)
    n = 5000  # comfortably past the column flush threshold
    for i in range(n):
        mon.record(float(i))
    assert len(mon) == n
    assert mon.values[0] == 0.0
    assert mon.last == float(n - 1)
    assert mon.mean == pytest.approx((n - 1) / 2)
