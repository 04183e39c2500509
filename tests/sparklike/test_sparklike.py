"""Tests for the Spark-like engine and its SciDP source."""

import numpy as np
import pytest

from repro.sparklike import Context, SparkLikeError

from tests.mapreduce.conftest import small_spec


def make_ctx(n_nodes=4, with_scidp=False, **ctx_kw):
    from repro.cluster import Cluster
    from repro.hdfs import HDFS
    from repro.sim import Environment

    env = Environment()
    cluster = Cluster(env)
    nodes = [cluster.add_node(f"n{i}", small_spec(), role="compute")
             for i in range(n_nodes)]
    hdfs = HDFS(env, cluster.network, block_size=200, replication=1)
    for node in nodes:
        hdfs.add_datanode(node)
    scidp = None
    if with_scidp:
        from repro.core import SciDP
        from repro.pfs import PFS, StripeLayout
        mds = cluster.add_node("mds", small_spec(), role="storage")
        oss = cluster.add_node("oss", small_spec(), role="storage")
        pfs = PFS(env, cluster.network, mds, [oss],
                  default_layout=StripeLayout(stripe_size=512,
                                              stripe_count=1))
        scidp = SciDP(env, nodes, pfs, hdfs, cluster.network)
    ctx = Context(env, nodes, hdfs, cluster.network, scidp=scidp,
                  **ctx_kw)
    return ctx, hdfs


# --------------------------------------------------------------- basics
def test_parallelize_collect_roundtrip():
    ctx, _ = make_ctx()
    data = list(range(100))
    assert sorted(ctx.parallelize(data, 8).collect()) == data


def test_map_filter_pipeline():
    ctx, _ = make_ctx()
    out = (ctx.parallelize(range(20), 4)
           .map(lambda x: x * 2)
           .filter(lambda x: x % 3 == 0)
           .collect())
    assert sorted(out) == [x * 2 for x in range(20) if (x * 2) % 3 == 0]


def test_flat_map_and_key_by():
    ctx, _ = make_ctx()
    out = (ctx.parallelize(["a b", "b c"], 2)
           .flat_map(lambda line: line.split())
           .key_by(lambda w: w)
           .collect())
    assert sorted(out) == [("a", "a"), ("b", "b"), ("b", "b"), ("c", "c")]


def test_count_and_take():
    ctx, _ = make_ctx()
    rdd = ctx.parallelize(range(37), 5)
    assert rdd.count() == 37
    assert len(rdd.take(5)) == 5
    with pytest.raises(SparkLikeError):
        rdd.take(-1)


def test_reduce():
    ctx, _ = make_ctx()
    assert ctx.parallelize(range(10), 3).reduce(
        lambda a, b: a + b) == 45


def test_reduce_empty_raises():
    ctx, _ = make_ctx()
    with pytest.raises(SparkLikeError):
        ctx.parallelize([], 2).reduce(lambda a, b: a + b)


# -------------------------------------------------------------- shuffles
def test_reduce_by_key_wordcount():
    ctx, _ = make_ctx()
    words = ["x", "y", "x", "z", "x", "y"] * 10
    out = dict(
        ctx.parallelize(words, 6)
        .map(lambda w: (w, 1))
        .reduce_by_key(lambda a, b: a + b)
        .collect())
    assert out == {"x": 30, "y": 20, "z": 10}


def test_group_by_key():
    ctx, _ = make_ctx()
    pairs = [("a", 1), ("b", 2), ("a", 3)]
    out = dict(ctx.parallelize(pairs, 2).group_by_key().collect())
    assert sorted(out["a"]) == [1, 3]
    assert out["b"] == [2]


def test_chained_shuffles_run_multiple_stages():
    ctx, _ = make_ctx()
    out = (ctx.parallelize(range(40), 4)
           .map(lambda x: (x % 4, x))
           .reduce_by_key(lambda a, b: a + b)          # stage boundary 1
           .map(lambda kv: (kv[0] % 2, kv[1]))
           .reduce_by_key(lambda a, b: a + b)          # stage boundary 2
           .collect())
    expect = {0: sum(x for x in range(40) if x % 4 in (0, 2)),
              1: sum(x for x in range(40) if x % 4 in (1, 3))}
    assert dict(out) == expect
    assert ctx.metrics["stages"] >= 3


def test_map_values_after_shuffle():
    ctx, _ = make_ctx()
    out = dict(
        ctx.parallelize([("k", 1), ("k", 2)], 2)
        .group_by_key()
        .map_values(sum)
        .collect())
    assert out == {"k": 3}


# ------------------------------------------------------------- text files
def test_text_file_source_with_locality():
    ctx, hdfs = make_ctx()
    hdfs.store_file_sync("/logs/a.txt", b"alpha\nbeta\n" * 40)
    rdd = ctx.text_file("/logs")
    lines = rdd.collect()
    assert len(lines) == 80
    counts = dict(
        rdd.map(lambda line: (line, 1))
        .reduce_by_key(lambda a, b: a + b).collect())
    assert counts == {b"alpha": 40, b"beta": 40}


def test_text_file_missing_raises():
    ctx, _ = make_ctx()
    with pytest.raises(Exception):
        ctx.text_file("/nope")


# ---------------------------------------------------------------- timing
def test_actions_advance_simulated_time():
    ctx, _ = make_ctx()
    t0 = ctx.env.now
    ctx.parallelize(range(50), 8).map(lambda x: x).collect()
    assert ctx.env.now > t0


def test_more_executors_run_faster():
    def elapsed(n_nodes):
        ctx, _ = make_ctx(n_nodes=n_nodes, executor_cores=2,
                          task_startup=0.05)
        t0 = ctx.env.now
        (ctx.parallelize(range(64), 32)
         .map_partitions(lambda task, recs:
                         (task.charge(0.5), recs)[1])
         .collect())
        return ctx.env.now - t0

    assert elapsed(8) < elapsed(2)


def test_task_charge_validation():
    ctx, _ = make_ctx()
    with pytest.raises(SparkLikeError):
        (ctx.parallelize([1], 1)
         .map_partitions(lambda task, recs:
                         (task.charge(-1), recs)[1])
         .collect())


# -------------------------------------------------------------- SciDP RDD
def seed_scidp(ctx_tuple):
    import io
    from repro.formats import Dataset, scinc
    ctx, _hdfs = ctx_tuple
    ds = Dataset()
    rng = np.random.default_rng(5)
    for name in ("QR", "T"):
        ds.create_variable(name, ("z", "y", "x"),
                           rng.random((4, 8, 8)).astype(np.float32),
                           chunk_shape=(1, 8, 8))
    buf = io.BytesIO()
    scinc.write(buf, ds)
    ctx.scidp.pfs.store_file("/sim/plot_18_00_00.nc", buf.getvalue())
    return ds


def test_scidp_rdd_reads_pfs_directly():
    ctx, hdfs = make_ctx(with_scidp=True)
    ds = seed_scidp((ctx, hdfs))
    rdd = ctx.scidp_variable("/sim", variables=["QR"])
    assert rdd.n_partitions == 4  # one per chunk/level
    records = rdd.collect()
    total = sum(float(arr.sum()) for _key, arr in records)
    assert total == pytest.approx(
        float(ds.variables["QR"].data.astype(np.float64).sum()), rel=1e-6)


def test_scidp_rdd_level_maxima_via_shuffle():
    ctx, hdfs = make_ctx(with_scidp=True)
    ds = seed_scidp((ctx, hdfs))
    out = dict(
        ctx.scidp_variable("/sim", variables=["T"])
        .map(lambda kv: (kv[0][2][0], float(np.asarray(kv[1]).max())))
        .reduce_by_key(max)
        .collect())
    for z in range(4):
        assert out[z] == pytest.approx(
            float(ds.variables["T"].data[z].max()))


def test_scidp_rdd_requires_runtime():
    ctx, _ = make_ctx(with_scidp=False)
    with pytest.raises(SparkLikeError, match="no SciDP runtime"):
        ctx.scidp_variable("/sim")


def test_scidp_rdd_missing_input():
    ctx, _ = make_ctx(with_scidp=True)
    with pytest.raises(SparkLikeError, match="no scientific input"):
        ctx.scidp_variable("/empty")


# --------------------------------------------------------------- caching
def test_cache_avoids_recompute():
    ctx, _ = make_ctx()
    calls = {"n": 0}

    def counting(task, records):
        calls["n"] += len(records)
        return records

    rdd = (ctx.parallelize(range(40), 4)
           .map_partitions(counting)
           .cache())
    first = sorted(rdd.collect())
    n_after_first = calls["n"]
    second = sorted(rdd.collect())
    assert first == second == list(range(40))
    assert calls["n"] == n_after_first          # no recompute
    assert ctx.metrics.get("cache_hits", 0) >= 4


def test_cache_shortcircuits_lineage_below():
    ctx, _ = make_ctx()
    source_reads = {"n": 0}

    def tracer(task, records):
        source_reads["n"] += 1
        return records

    base = ctx.parallelize(range(20), 2).map_partitions(tracer).cache()
    derived_a = base.map(lambda x: x + 1)
    derived_b = base.map(lambda x: x * 2)
    assert sorted(derived_a.collect()) == [x + 1 for x in range(20)]
    assert sorted(derived_b.collect()) == sorted(x * 2 for x in range(20))
    assert source_reads["n"] == 2  # computed once per partition, total


def test_uncached_rdd_recomputes():
    ctx, _ = make_ctx()
    calls = {"n": 0}

    def counting(task, records):
        calls["n"] += 1
        return records

    rdd = ctx.parallelize(range(8), 2).map_partitions(counting)
    rdd.collect()
    rdd.collect()
    assert calls["n"] == 4  # 2 partitions x 2 actions


def test_cached_scidp_rdd_second_action_cheaper():
    ctx, hdfs = make_ctx(with_scidp=True)
    seed_scidp((ctx, hdfs))
    rdd = ctx.scidp_variable("/sim", variables=["QR"]).cache()
    t0 = ctx.env.now
    rdd.count()
    cold = ctx.env.now - t0
    t1 = ctx.env.now
    rdd.count()
    warm = ctx.env.now - t1
    assert warm < cold  # no PFS reads the second time


@pytest.mark.parametrize("shuffle", ["reduce_by_key", "group_by_key"])
def test_unorderable_shuffle_keys_raise_one_line_error(shuffle):
    """(1, "a") beside ("a", 1): with a combiner the map-side sort
    meets them, without one the reduce-side merge does."""
    ctx, _ = make_ctx()
    pairs = ctx.parallelize([((1, "a"), 1), (("a", 1), 1)], 1)
    if shuffle == "reduce_by_key":
        rdd = pairs.reduce_by_key(lambda a, b: a + b, 1)
    else:
        rdd = pairs.group_by_key(1)
    with pytest.raises(SparkLikeError, match="keys cannot be ordered") \
            as caught:
        rdd.collect()
    message = str(caught.value)
    assert "\n" not in message
    assert f"RDD {rdd._id}" in message
    assert "'int'" in message and "'str'" in message
