"""ReadPlanner vs naive oracles and the recorded pre-planner timings.

The planner's arithmetic (chopping, per-OST coalescing) is checked
against the naive helpers in ``tests/oracles.py``. Its event sequences
are checked against ``tests/golden/io.json``: each case was run once
through the duplicated chop/coalesce/fan-out copies the planner
replaced, and the planner must reproduce them — simulated completion
times to 1e-9, identical byte streams, the same number of device
requests.
"""

import random
import zlib

import pytest

from repro.io.planner import ReadPlanner, chop_range, coalesce_extents
from repro.sim.cache import ReadAheadCache

from tests.io.conftest import make_pfs_world, payload, run
from tests.oracles import naive_chop, naive_coalesce_extents

TOL = 1e-9


# ------------------------------------------------------------ pure helpers
@pytest.mark.parametrize("seed", range(5))
def test_chop_matches_legacy(seed):
    rng = random.Random(seed)
    for _ in range(50):
        offset = rng.randrange(0, 10_000)
        length = rng.randrange(1, 5_000)
        granularity = rng.choice([None, 1, 7, 64, 1024])
        assert chop_range(offset, length, granularity) \
            == naive_chop(offset, length, granularity)


@pytest.mark.parametrize("seed", range(5))
def test_coalesce_matches_legacy(seed):
    rng = random.Random(100 + seed)
    _env, pfs, _client = make_pfs_world(stripe_size=50, stripe_count=4)
    inode = pfs.store_file("/f", payload(5_000, seed=seed))
    extents = []
    for _ in range(30):
        off = rng.randrange(0, 4_900)
        extents.extend(inode.layout.map_range(
            off, rng.randrange(1, 5_000 - off)))
    rng.shuffle(extents)
    assert coalesce_extents(list(extents)) \
        == naive_coalesce_extents(list(extents))


# ----------------------------------------------------- read_extents timing
def random_extent_workload(rng, inode, size):
    """A shuffled list of stripe-mapped extents over disjoint subranges.

    Callers (MPI-IO aggregation domains, virtual-block reads) only ever
    pass non-overlapping ranges, so the workload honours that invariant.
    """
    cuts = sorted(rng.sample(range(1, size), rng.randrange(2, 12)))
    bounds = list(zip([0, *cuts], [*cuts, size]))
    extents = []
    for lo, hi in rng.sample(bounds, rng.randrange(1, len(bounds) + 1)):
        extents.extend(inode.layout.map_range(lo, hi - lo))
    rng.shuffle(extents)
    return extents


@pytest.mark.parametrize("seed", [1, 7, 42, 20180710])
@pytest.mark.parametrize("window", [None, 0, 1, 2, 3])
def test_read_extents_matches_legacy(seed, window, golden, transfers):
    """PFSClient.read_extents ≡ the recorded fan-out: bytes + clock."""
    size = 3_000
    env, pfs, client = make_pfs_world(stripe_size=64, stripe_count=4)
    inode = pfs.store_file("/f", payload(size, seed=seed))
    extents = random_extent_workload(random.Random(seed), inode, size)
    data = run(env, client.read_extents(
        inode, extents, max_inflight=window))
    assert zlib.crc32(data) == golden["crc"]
    assert env.now == pytest.approx(golden["elapsed"], abs=TOL)
    assert transfers[0] == golden["transfers"]


@pytest.mark.parametrize("seed", [3, 11])
def test_concurrent_read_extents_matches_legacy(seed, golden, transfers):
    """Several overlapping read_extents calls racing on the same OSTs."""
    size = 2_000
    rng = random.Random(seed)
    env, pfs, client = make_pfs_world(stripe_size=50, stripe_count=4)
    inode = pfs.store_file("/f", payload(size, seed=seed))
    workloads = [
        (random_extent_workload(rng, inode, size),
         rng.choice([None, 0, 1, 2]))
        for _ in range(4)
    ]
    finishes = []

    def one(extents, window):
        data = yield env.process(client.read_extents(
            inode, list(extents), max_inflight=window))
        finishes.append((env.now, len(data)))

    for extents, window in workloads:
        env.process(one(extents, window))
    env.run()
    assert len(finishes) == len(golden["finishes"])
    for (t_new, n_new), (t_old, n_old) in zip(finishes, golden["finishes"]):
        assert n_new == n_old
        assert t_new == pytest.approx(t_old, abs=TOL)
    assert transfers[0] == golden["transfers"]


# ------------------------------------------------------ fetch_range timing
@pytest.mark.parametrize("seed", [2, 13, 99])
@pytest.mark.parametrize("granularity,window", [
    (None, 1), (64, 1), (64, 3), (64, 0), (200, 2),
])
def test_fetch_range_matches_legacy(seed, granularity, window, golden,
                                    transfers):
    """planner.fetch_range ≡ the recorded chop/fetch machinery."""
    size = 1_500
    rng = random.Random(seed)
    ranges = [(rng.randrange(0, size - 1),) for _ in range(5)]
    ranges = [(off, rng.randrange(1, size - off)) for (off,) in ranges]

    env, pfs, client = make_pfs_world(stripe_size=64, stripe_count=4)
    pfs.store_file("/f", payload(size, seed=seed))
    planner = ReadPlanner(
        env, scheme="scidp", granularity=granularity,
        request_overhead=0.0008, max_inflight=window)
    fetch = lambda pos, n: client.read("/f", pos, n)  # noqa: E731
    outs = [run(env, planner.fetch_range("/f", off, n, fetch))
            for off, n in ranges]
    assert [zlib.crc32(out) for out in outs] == golden["crcs"]
    assert env.now == pytest.approx(golden["elapsed"], abs=TOL)
    assert transfers[0] == golden["transfers"]


@pytest.mark.parametrize("window", [1, 2])
def test_fetch_range_with_cache_matches_legacy(window, golden, transfers):
    """Join-in-flight cache protocol: concurrent identical ranges share
    one fetch, with the recorded timing."""
    size = 1_000
    env, pfs, client = make_pfs_world(stripe_size=64, stripe_count=4)
    pfs.store_file("/f", payload(size, seed=5))
    cache = ReadAheadCache(env, capacity_bytes=1 << 20)
    planner = ReadPlanner(
        env, scheme="scidp", granularity=128,
        request_overhead=0.0008, max_inflight=window, cache=cache)
    finishes = []

    def one(off, n):
        data = yield env.process(planner.fetch_range(
            "/f", off, n, lambda pos, m: client.read("/f", pos, m)))
        finishes.append((env.now, len(data)))

    # Two racing identical reads (join-in-flight), then a re-read
    # after completion (cache hit), plus a disjoint range.
    env.process(one(0, 512))
    env.process(one(0, 512))
    env.process(one(512, 488))

    def late():
        yield env.timeout(10.0)
        yield env.process(one(0, 512))

    env.process(late())
    env.run()
    assert [(n, round(t, 9)) for t, n in finishes] \
        == [(n, round(t, 9)) for t, n in golden["finishes"]]
    assert cache.stats.hits == golden["hits"]
    assert cache.stats.overlap_hits == golden["overlap_hits"]
    assert transfers[0] == golden["transfers"]
