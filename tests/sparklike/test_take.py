"""``take(n)`` evaluates partitions incrementally (satellite fix: the
eager engine ran the whole job and sliced the result)."""

import pytest

from repro.sparklike import SparkLikeError

from tests.sparklike.test_sparklike import make_ctx


def counting_factory(calls):
    def counting(task, records):
        calls.add(task.index)
        return records
    return counting


def test_take_runs_only_needed_partitions():
    ctx, _ = make_ctx()
    computed = set()
    rdd = (ctx.parallelize(range(100), 10)
           .map_partitions(counting_factory(computed)))
    assert rdd.take(5) == [0, 1, 2, 3, 4]
    assert computed == {0}          # 10 records/partition: one is enough


def test_take_grows_batches_until_satisfied():
    ctx, _ = make_ctx()
    computed = set()
    rdd = (ctx.parallelize(range(100), 10)
           .map_partitions(counting_factory(computed)))
    out = rdd.take(25)
    assert out == list(range(25))
    # partition 0 (10 records) is short, so the 4x batch 1..4 follows.
    assert computed == {0, 1, 2, 3, 4}


def test_take_zero_and_overshoot():
    ctx, _ = make_ctx()
    rdd = ctx.parallelize(range(7), 3)
    assert rdd.take(0) == []
    assert rdd.take(100) == list(range(7))


def test_take_negative_raises():
    ctx, _ = make_ctx()
    with pytest.raises(SparkLikeError):
        ctx.parallelize(range(7), 3).take(-1)


def test_parallelize_negative_partitions_raises():
    # an RDD with no partitions would silently collect() to []
    ctx, _ = make_ctx()
    with pytest.raises(SparkLikeError, match="n_partitions must be >= 1"):
        ctx.parallelize([1, 2], -1)


def test_take_cheaper_than_collect():
    def elapsed(action):
        ctx, _ = make_ctx()
        rdd = ctx.parallelize(range(400), 16).map(lambda x: x)
        t0 = ctx.env.now
        action(rdd)
        return ctx.env.now - t0

    assert (elapsed(lambda rdd: rdd.take(3))
            < elapsed(lambda rdd: rdd.collect()))


def test_take_after_shuffle():
    ctx, _ = make_ctx()
    out = (ctx.parallelize([(i % 4, 1) for i in range(40)], 4)
           .reduce_by_key(lambda a, b: a + b)
           .take(2))
    assert len(out) == 2
    assert all(v == 10 for _k, v in out)


def test_first():
    ctx, _ = make_ctx()
    assert ctx.parallelize(range(5), 5).first() == 0
    with pytest.raises(SparkLikeError, match="empty"):
        ctx.parallelize([], 2).first()
