"""Tests for the MPI-IO layer (independent vs collective reads)."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.pfs import PFS, PFSClient, PFSError, StripeLayout
from repro.pfs.mpiio import MPIFile, merge_ranges, partition_domains
from repro.sim import Environment

from tests.pfs.conftest import run, small_spec


def payload(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()


def make_world(n_ranks=4, disk_bw=1000.0, nic_bw=10**6, n_disks=4):
    env = Environment()
    cluster = Cluster(env)
    ranks = [
        cluster.add_node(f"c{i}", small_spec(nic_bw=nic_bw), role="compute")
        for i in range(n_ranks)
    ]
    oss = cluster.add_node(
        "oss", small_spec(disk_bw=disk_bw, n_disks=n_disks, nic_bw=nic_bw),
        role="storage")
    pfs = PFS(env, cluster.network, oss, [oss])
    clients = [PFSClient(pfs, node) for node in ranks]
    return env, pfs, clients


# -------------------------------------------------------------- helpers
def test_merge_ranges_overlap_and_adjacency():
    assert merge_ranges([(0, 10), (10, 5), (30, 5), (32, 10)]) == [
        (0, 15), (30, 12)]
    assert merge_ranges([]) == []
    assert merge_ranges([(5, 0)]) == []


def test_partition_domains_balanced():
    domains = partition_domains([(0, 100)], 4)
    assert domains == [[(0, 25)], [(25, 25)], [(50, 25)], [(75, 25)]]
    assert partition_domains([], 3) == [[], [], []]


def test_partition_domains_across_gaps():
    domains = partition_domains([(0, 30), (100, 30)], 2)
    flat = [r for d in domains for r in d]
    assert sum(length for _o, length in flat) == 60
    assert all(sum(length for _o, length in d) == 30 for d in domains)


# ----------------------------------------------------------- independent
def test_read_at_returns_correct_bytes():
    env, pfs, clients = make_world()
    data = payload(4000)
    pfs.store_file("/f", data, StripeLayout(stripe_size=256, stripe_count=4))
    f = MPIFile.open(clients, "/f")
    got = run(env, f.read_at(2, 1000, 500))
    assert got == data[1000:1500]


def test_close_drops_the_cached_inode():
    _env, pfs, clients = make_world()
    pfs.store_file("/f", payload(100))
    f = MPIFile.open(clients, "/f")
    assert f.size == 100
    pfs.unlink("/f")
    pfs.store_file("/f", payload(300))
    assert f.size == 100          # the handle still holds the old inode
    f.close()
    assert f.size == 300          # re-resolved from the metadata server


def test_open_missing_file_raises():
    _env, _pfs, clients = make_world()
    with pytest.raises(PFSError):
        MPIFile.open(clients, "/missing")


# ------------------------------------------------------------ collective
def test_read_at_all_roundtrip_disjoint():
    env, pfs, clients = make_world()
    data = payload(4000, seed=1)
    pfs.store_file("/f", data, StripeLayout(stripe_size=128, stripe_count=4))
    f = MPIFile.open(clients, "/f")
    requests = [(i * 1000, 1000) for i in range(4)]
    results = run(env, f.read_at_all(requests))
    for i in range(4):
        assert results[i] == data[i * 1000:(i + 1) * 1000]


def test_read_at_all_with_non_readers():
    env, pfs, clients = make_world()
    data = payload(2000, seed=2)
    pfs.store_file("/f", data, StripeLayout(stripe_size=128, stripe_count=4))
    f = MPIFile.open(clients, "/f")
    results = run(env, f.read_at_all([None, (500, 700), None, (0, 100)]))
    assert results[0] == b"" and results[2] == b""
    assert results[1] == data[500:1200]
    assert results[3] == data[0:100]


def test_read_at_all_overlapping_requests():
    env, pfs, clients = make_world()
    data = payload(1000, seed=3)
    pfs.store_file("/f", data, StripeLayout(stripe_size=64, stripe_count=4))
    f = MPIFile.open(clients, "/f")
    results = run(env, f.read_at_all([(0, 600), (400, 600), (0, 1000),
                                      (250, 500)]))
    assert results[0] == data[0:600]
    assert results[1] == data[400:1000]
    assert results[2] == data
    assert results[3] == data[250:750]


def test_read_at_all_past_eof_rejected():
    env, pfs, clients = make_world()
    pfs.store_file("/f", payload(100))
    f = MPIFile.open(clients, "/f")

    def proc():
        yield from f.read_at_all([(0, 200), None, None, None])

    with pytest.raises(PFSError):
        run(env, proc())


def test_collective_beats_independent_for_scattered_small_reads():
    """The seek cost of many scattered independent reads must exceed the
    two-phase collective's large-run reads — the Fig. 6 mechanism."""
    def scattered_requests(n_ranks, n_per_rank, piece, stride):
        reqs = []
        for r in range(n_ranks):
            reqs.append([
                ((r * n_per_rank + k) * stride, piece)
                for k in range(n_per_rank)
            ])
        return reqs

    # Strong seek penalty, so request count dominates.
    def build(seek):
        env = Environment()
        cluster = Cluster(env)
        nodes = [cluster.add_node(f"c{i}", small_spec(nic_bw=10**9),
                                  role="compute") for i in range(4)]
        from repro.cluster import DiskSpec, LinkSpec, NodeSpec
        oss_spec = NodeSpec(
            cpus=4, memory=10**9,
            disks=tuple(DiskSpec(bandwidth=10**6, seek_latency=seek)
                        for _ in range(4)),
            nic=LinkSpec(bandwidth=10**9, latency=0.0))
        oss = cluster.add_node("oss", oss_spec, role="storage")
        pfs = PFS(env, cluster.network, oss, [oss])
        data = payload(64 * 1024, seed=5)
        pfs.store_file("/f", data,
                       StripeLayout(stripe_size=4096, stripe_count=4))
        clients = [PFSClient(pfs, n) for n in nodes]
        return env, MPIFile.open(clients, "/f")

    reqs = scattered_requests(4, 8, piece=512, stride=2048)

    env_i, f_i = build(seek=0.01)

    def independent():
        procs = []
        for rank, rank_reqs in enumerate(reqs):
            def worker(rank=rank, rank_reqs=rank_reqs):
                for off, length in rank_reqs:
                    yield env_i.process(f_i.read_at(rank, off, length))
            procs.append(env_i.process(worker()))
        from repro.sim import AllOf
        yield AllOf(env_i, procs)

    run(env_i, independent())
    t_ind = env_i.now

    env_c, f_c = build(seek=0.01)

    def collective():
        # One collective round covering each rank's full span.
        spans = [
            (rank_reqs[0][0],
             rank_reqs[-1][0] + rank_reqs[-1][1] - rank_reqs[0][0])
            for rank_reqs in reqs
        ]
        yield from f_c.read_at_all(spans)

    run(env_c, collective())
    t_coll = env_c.now
    assert t_coll < t_ind
