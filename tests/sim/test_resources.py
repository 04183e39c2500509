"""Unit tests for Resource, Container, Store and SharedBandwidth."""

import pytest

from repro.sim import Container, Environment, Resource, SharedBandwidth, Store
from repro.sim.engine import SimulationError


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def worker(i):
        req = res.request()
        yield req
        granted.append((i, env.now))
        yield env.timeout(10)
        res.release(req)

    for i in range(3):
        env.process(worker(i))
    env.run()
    assert granted == [(0, 0.0), (1, 0.0), (2, 10.0)]


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(i):
        req = res.request()
        yield req
        order.append(i)
        yield env.timeout(1)
        res.release(req)

    for i in range(5):
        env.process(worker(i))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_release_unowned_raises():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)  # double release

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)
    times = []

    def worker():
        with res.request() as req:
            yield req
            yield env.timeout(2)
        times.append(env.now)

    env.process(worker())
    env.process(worker())
    env.run()
    assert times == [2.0, 4.0]


def test_resource_queue_length_tracking():
    env = Environment()
    res = Resource(env, capacity=1)
    observed = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(5)
        res.release(req)

    def waiter():
        req = res.request()
        yield req
        res.release(req)

    def observer():
        yield env.timeout(1)
        observed.append((res.in_use, res.queue_length))

    env.process(holder())
    env.process(waiter())
    env.process(waiter())
    env.process(observer())
    env.run()
    assert observed == [(1, 2)]


# --------------------------------------------------------------- Container
def test_container_put_get():
    env = Environment()
    tank = Container(env, capacity=100, init=10)
    got = []

    def consumer():
        yield tank.get(30)
        got.append(env.now)

    def producer():
        yield env.timeout(3)
        yield tank.put(25)

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [3.0]
    assert tank.level == pytest.approx(5.0)


def test_container_put_blocks_at_capacity():
    env = Environment()
    tank = Container(env, capacity=10, init=10)
    done = []

    def producer():
        yield tank.put(5)
        done.append(env.now)

    def consumer():
        yield env.timeout(2)
        yield tank.get(7)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert done == [2.0]


def test_container_init_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=6)


# -------------------------------------------------------------------- Store
def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield env.timeout(1)
            yield store.put(i)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    done = []

    def producer():
        yield store.put("a")
        yield store.put("b")
        done.append(env.now)

    def consumer():
        yield env.timeout(4)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert done == [4.0]


# --------------------------------------------------------- SharedBandwidth
def test_single_transfer_time_is_size_over_capacity():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=100.0)
    done = []

    def proc():
        yield pipe.transfer(500)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [pytest.approx(5.0)]


def test_two_equal_transfers_share_bandwidth():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=100.0)
    done = []

    def proc(i):
        yield pipe.transfer(500)
        done.append((i, env.now))

    env.process(proc(0))
    env.process(proc(1))
    env.run()
    # Each effectively gets 50 B/s for the full duration.
    assert done[0][1] == pytest.approx(10.0)
    assert done[1][1] == pytest.approx(10.0)


def test_staggered_transfers_processor_sharing():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=100.0)
    done = {}

    def proc(name, start, nbytes):
        yield env.timeout(start)
        yield pipe.transfer(nbytes)
        done[name] = env.now

    # A starts alone; B joins at t=2. A has 300B left at t=2; they share
    # 50B/s each. A finishes at 2 + 300/50 = 8. B then gets full bandwidth:
    # B moved 300B by t=8, 200B left at 100B/s -> t=10.
    env.process(proc("a", 0, 500))
    env.process(proc("b", 2, 500))
    env.run()
    assert done["a"] == pytest.approx(8.0)
    assert done["b"] == pytest.approx(10.0)


def test_transfer_latency_delays_admission():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=100.0)
    done = []

    def proc():
        yield pipe.transfer(100, latency=3.0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [pytest.approx(4.0)]


def test_zero_byte_transfer_completes_instantly():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=10.0)
    done = []

    def proc():
        yield pipe.transfer(0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0.0]


def test_bytes_moved_accounting():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=10.0)

    def proc():
        yield pipe.transfer(30)
        yield pipe.transfer(70)

    env.process(proc())
    env.run()
    assert pipe.bytes_moved == pytest.approx(100.0)


@pytest.mark.parametrize("nbytes,latency", [
    (float("nan"), 0.0), (float("inf"), 0.0),
    (1.0, float("nan")), (1.0, float("inf")),
])
def test_non_finite_transfer_rejected(wall_clock_guard, nbytes, latency):
    """A NaN transfer used to be admitted (``nan < 0`` is false) and its
    NaN wake delay rescheduled at the same instant forever."""
    env = Environment()
    pipe = SharedBandwidth(env, capacity=100.0)
    with pytest.raises(ValueError, match="must be finite"):
        pipe.transfer(nbytes, latency=latency)
    assert pipe.n_active == 0 and pipe.bytes_moved == 0.0
    env.run(until=1000)  # nothing was admitted: returns at once
    assert env.now == 1000


def test_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        SharedBandwidth(env, capacity=0)


def test_many_concurrent_transfers_aggregate_to_capacity():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=100.0)
    finish = []

    def proc():
        yield pipe.transfer(100)
        finish.append(env.now)

    for _ in range(10):
        env.process(proc())
    env.run()
    # 10 x 100B through a 100 B/s pipe must take exactly 10s in aggregate.
    assert all(t == pytest.approx(10.0) for t in finish)


def test_busy_time_tracks_active_periods():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=100.0)

    def proc():
        yield pipe.transfer(200)       # busy [0, 2]
        yield env.timeout(3)           # idle [2, 5]
        yield pipe.transfer(100)       # busy [5, 6]

    env.process(proc())
    env.run()
    assert pipe.busy_time == pytest.approx(3.0)
    assert pipe.utilization() == pytest.approx(3.0 / 6.0)


def test_utilization_window():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=100.0)

    def proc():
        yield env.timeout(8)
        yield pipe.transfer(200)       # busy [8, 10]

    env.process(proc())
    env.run()
    assert pipe.utilization(since=8.0) == pytest.approx(1.0)
    assert pipe.utilization() == pytest.approx(0.2)


def test_utilization_empty_window():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=10.0)
    assert pipe.utilization() == 0.0


def test_concurrent_transfers_count_busy_once():
    env = Environment()
    pipe = SharedBandwidth(env, capacity=100.0)

    def proc():
        yield pipe.transfer(100)

    env.process(proc())
    env.process(proc())
    env.run()
    # Two 100B transfers share the pipe for 2s: busy 2s, not 4.
    assert env.now == pytest.approx(2.0)
    assert pipe.busy_time == pytest.approx(2.0)
