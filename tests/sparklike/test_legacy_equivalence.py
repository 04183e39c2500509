"""Guard-rail for the default-knob engine: right results AND the
event trace the speed-ups are quoted against, action by action.

Each of the ten workloads runs once, on a default-knob
:class:`repro.sparklike.Context` (fusion off, unbounded cache,
all-at-once shuffle fetch), and is held to two things that need no
second engine:

- every action's result equals a plain-Python expectation written next
  to the workload;
- every inter-action ``env.now`` mark, and the stage / task /
  cache-hit counts, equal what the retired v1 eager engine produced in
  an identically-seeded world (``tests/golden/sparklike.json``, 1e-9).
  Any drift in the default event shape — an extra process hop, a
  reordered transfer, a changed charge — shows up as a timing mismatch.
"""

import io
from collections import Counter

import numpy as np
import pytest

from repro.sparklike import Context

from tests.golden import load_golden
from tests.mapreduce.conftest import small_spec

TOL = 1e-9

GOLDEN = load_golden("sparklike")["workloads"]

NC_PATH = "/sim/plot_18_00_00.nc"


def build_world(with_scidp=False, seed_files=()):
    from repro.cluster import Cluster
    from repro.hdfs import HDFS
    from repro.sim import Environment

    env = Environment()
    cluster = Cluster(env)
    nodes = [cluster.add_node(f"n{i}", small_spec(), role="compute")
             for i in range(4)]
    hdfs = HDFS(env, cluster.network, block_size=200, replication=1)
    for node in nodes:
        hdfs.add_datanode(node)
    for path, payload in seed_files:
        hdfs.store_file_sync(path, payload)
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
        seed_nc(scidp)
    return Context(env, nodes, hdfs, cluster.network, scidp=scidp)


def nc_variables():
    """The two (4, 8, 8) variables of the seeded file, one z-level per
    chunk."""
    rng = np.random.default_rng(5)
    return {name: rng.random((4, 8, 8)).astype(np.float32)
            for name in ("QR", "T")}


def seed_nc(scidp):
    from repro.formats import Dataset, scinc
    ds = Dataset()
    for name, data in nc_variables().items():
        ds.create_variable(name, ("z", "y", "x"), data,
                           chunk_shape=(1, 8, 8))
    buf = io.BytesIO()
    scinc.write(buf, ds)
    scidp.pfs.store_file(NC_PATH, buf.getvalue())


@pytest.fixture
def run_pinned(request):
    """``run_pinned(workload, expected, **world_kw) -> ctx``: run
    ``workload(ctx) -> [result, ...]``; each action result is compared
    with ``expected``, every inter-action timestamp and the job metrics
    with this test's golden."""
    golden = GOLDEN[request.node.name]

    def run(workload, expected, **world_kw):
        ctx = build_world(**world_kw)
        marks, out = [], []
        for result in workload(ctx):
            marks.append(ctx.env.now)
            out.append(result)
        assert out == expected
        assert marks == pytest.approx(golden["marks"], abs=TOL)
        for name in ("stages", "tasks", "cache_hits"):
            assert ctx.metrics.get(name, 0) == golden[name], name
        return ctx

    return run


def sums_by_key(pairs):
    out = Counter()
    for key, value in pairs:
        out[key] += value
    return sorted(out.items())


def test_map_filter_collect(run_pinned):
    def workload(ctx):
        yield sorted(ctx.parallelize(range(200), 8)
                     .map(lambda x: x * 3)
                     .filter(lambda x: x % 2 == 0)
                     .collect())

    run_pinned(workload, [list(range(0, 600, 6))])


def test_wordcount_shuffle(run_pinned):
    words = ["x", "y", "x", "z", "x", "y"] * 25

    def workload(ctx):
        yield sorted(ctx.parallelize(words, 6)
                     .map(lambda w: (w, 1))
                     .reduce_by_key(lambda a, b: a + b)
                     .collect())

    run_pinned(workload, [sorted(Counter(words).items())])


def test_chained_shuffles(run_pinned):
    def workload(ctx):
        yield sorted(ctx.parallelize(range(80), 4)
                     .map(lambda x: (x % 8, x))
                     .reduce_by_key(lambda a, b: a + b)
                     .map(lambda kv: (kv[0] % 2, kv[1]))
                     .reduce_by_key(lambda a, b: a + b)
                     .collect())

    run_pinned(workload, [sums_by_key((x % 8 % 2, x) for x in range(80))])


def test_group_by_key_then_map_values(run_pinned):
    pairs = [(i % 5, i) for i in range(60)]

    def workload(ctx):
        yield sorted(ctx.parallelize(pairs, 6)
                     .group_by_key()
                     .map_values(sum)
                     .collect())

    run_pinned(workload, [sums_by_key(pairs)])


def test_text_file_pipeline(run_pinned):
    def workload(ctx):
        rdd = ctx.text_file("/logs")
        yield len(rdd.collect())
        yield sorted(rdd.map(lambda line: (line, 1))
                     .reduce_by_key(lambda a, b: a + b)
                     .collect())

    run_pinned(workload,
               [110, [(b"alpha", 40), (b"beta", 40), (b"gamma", 30)]],
               seed_files=[("/logs/a.txt", b"alpha\nbeta\n" * 40),
                           ("/logs/b.txt", b"gamma\n" * 30)])


def test_cached_iterative(run_pinned):
    def workload(ctx):
        base = ctx.parallelize(range(120), 8).map(lambda x: x + 1).cache()
        yield base.count()
        yield base.count()        # warm: served from the cache tier
        yield sorted(base.map(lambda x: (x % 4, x))
                     .reduce_by_key(lambda a, b: a + b)
                     .collect())

    run_pinned(workload,
               [120, 120, sums_by_key((x % 4, x) for x in range(1, 121))])


def test_shuffle_output_reuse_across_actions(run_pinned):
    def workload(ctx):
        counts = (ctx.parallelize([(i % 3, 1) for i in range(90)], 6)
                  .reduce_by_key(lambda a, b: a + b))
        yield sorted(counts.collect())
        # Second action over the same shuffle: map stage is skipped.
        yield sorted(counts.map_values(lambda v: v * 2).collect())

    run_pinned(workload, [[(0, 30), (1, 30), (2, 30)],
                          [(0, 60), (1, 60), (2, 60)]])


def test_count_and_reduce(run_pinned):
    def workload(ctx):
        rdd = ctx.parallelize(range(37), 5)
        yield rdd.count()
        yield rdd.reduce(lambda a, b: a + b)

    run_pinned(workload, [37, sum(range(37))])


def test_scidp_source(run_pinned):
    def workload(ctx):
        rdd = ctx.scidp_variable("/sim", variables=["QR"])
        yield sorted(
            (key, float(np.asarray(arr).sum()))
            for key, arr in rdd.collect())

    qr = nc_variables()["QR"]
    run_pinned(workload,
               [[((NC_PATH, "/QR", (z, 0, 0)), float(qr[z:z + 1].sum()))
                 for z in range(4)]],
               with_scidp=True)


def test_scidp_shuffle_maxima(run_pinned):
    def workload(ctx):
        yield sorted(
            ctx.scidp_variable("/sim", variables=["T"])
            .map(lambda kv: (kv[0][2][0], float(np.asarray(kv[1]).max())))
            .reduce_by_key(max)
            .collect())

    t = nc_variables()["T"]
    run_pinned(workload, [[(z, float(t[z].max())) for z in range(4)]],
               with_scidp=True)
