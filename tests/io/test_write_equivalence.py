"""Production writers vs the recorded pre-planner write paths.

The write-side counterpart of ``test_planner_equivalence``: at default knobs
(no packet pipelining, serial blocks, whole-extent stripe pushes) the
:class:`~repro.io.write.WritePlanner`-backed writers must reproduce the
event sequences of the writers they replaced — sequential whole-block
store-and-forward for HDFS, one push per stripe extent under an
unbounded ``AllOf`` for the PFS, the two-phase collective on top of it
for MPI-IO. ``tests/golden/io.json`` holds each case's completion time
(checked to 1e-9), replica placements, stored-bytes digest and device
request count. Non-default knobs are covered separately: they are
behaviour changes, gated by the write bench and its perf-smoke goldens.
"""

import random
import zlib

import pytest

from repro.cluster import Cluster
from repro.hdfs import HDFS
from repro.pfs import PFS, PFSClient, StripeLayout
from repro.pfs.mpiio import MPIFile
from repro.sim import Environment

from tests.io.conftest import make_pfs_world, payload, run, small_spec

TOL = 1e-9


def make_hdfs_world(replication=3, block_size=100, n_nodes=5):
    """Writer node + datanodes; returns (env, hdfs, client)."""
    env = Environment()
    cluster = Cluster(env)
    nodes = [cluster.add_node(f"n{i}", small_spec(), role="compute")
             for i in range(n_nodes)]
    hdfs = HDFS(env, cluster.network, block_size=block_size,
                replication=replication)
    for node in nodes:
        hdfs.add_datanode(node)
    return env, hdfs, hdfs.client(nodes[0])


# ------------------------------------------------------------- HDFS writes
@pytest.mark.parametrize("replication", [1, 2, 3])
@pytest.mark.parametrize("n_bytes", [1, 100, 350, 730])
def test_hdfs_write_matches_legacy(replication, n_bytes, golden, transfers):
    """Default-knob DFSClient.write ≡ sequential store-and-forward:
    clock, replica placements, and stored bytes."""
    data = payload(n_bytes, seed=n_bytes)
    env, hdfs, client = make_hdfs_world(replication=replication)
    run(env, client.write("/f", data))
    locations = [list(b.locations) for b
                 in hdfs.namenode.get_block_locations("/f")]
    assert hdfs.read_file_sync("/f") == data
    assert locations == golden["locations"]
    assert client.bytes_written == n_bytes
    assert env.now == pytest.approx(golden["elapsed"], abs=TOL)
    assert transfers[0] == golden["transfers"]


@pytest.mark.parametrize("seed", [1, 5, 17])
def test_concurrent_hdfs_writes_match_legacy(seed, golden, transfers):
    """Several writers racing on the same datanodes/links."""
    rng = random.Random(seed)
    jobs = [(f"/f{i}", payload(rng.randrange(1, 500), seed=seed * 10 + i))
            for i in range(3)]
    env, hdfs, _client = make_hdfs_world(replication=2)
    clients = [hdfs.client(hdfs.datanode(name).node)
               for name in list(hdfs._datanodes)[:3]]
    finishes = []

    def one(client, path, data):
        yield env.process(client.write(path, data))
        finishes.append((path, env.now))

    for client, (path, data) in zip(clients, jobs):
        env.process(one(client, path, data))
    env.run()
    for path, data in jobs:
        assert hdfs.read_file_sync(path) == data
    assert len(finishes) == len(golden["finishes"])
    for (p_new, t_new), (p_old, t_old) in zip(finishes, golden["finishes"]):
        assert p_new == p_old
        assert t_new == pytest.approx(t_old, abs=TOL)
    assert transfers[0] == golden["transfers"]


# -------------------------------------------------------------- PFS writes
@pytest.mark.parametrize("seed,offset,n_bytes", [
    (1, 0, 50), (2, 0, 1000), (3, 37, 613), (4, 250, 901), (5, 99, 1),
])
def test_pfs_write_matches_legacy(seed, offset, n_bytes, golden, transfers):
    """Default-knob PFSClient.write ≡ unbounded stripe pushes, including
    odd offsets that start mid-stripe."""
    data = payload(n_bytes, seed=seed)
    env, pfs, client = make_pfs_world(stripe_size=100, stripe_count=4)
    # pre-create so the write lands in the recorded layout and the
    # offset write has a defined prefix
    pfs.store_file("/f", payload(offset + n_bytes, seed=seed + 100))
    run(env, client.write("/f", data, offset=offset))
    stored = pfs.read_file_sync("/f")
    assert zlib.crc32(stored) == golden["crc"]
    assert stored[offset:offset + n_bytes] == data
    assert client.bytes_written == n_bytes
    assert env.now == pytest.approx(golden["elapsed"], abs=TOL)
    assert transfers[0] == golden["transfers"]


def test_pfs_write_creates_file_like_legacy(golden, transfers):
    data = payload(333, seed=7)
    env, pfs, client = make_pfs_world(stripe_size=64, stripe_count=4)
    run(env, client.write("/new", data))
    assert pfs.read_file_sync("/new") == data
    assert env.now == pytest.approx(golden["elapsed"], abs=TOL)
    assert transfers[0] == golden["transfers"]


# ------------------------------------------------------------ MPI-IO writes
def make_mpi_world(n_ranks=4):
    env = Environment()
    cluster = Cluster(env)
    ranks = [cluster.add_node(f"c{i}", small_spec(), role="compute")
             for i in range(n_ranks)]
    oss0 = cluster.add_node("oss0", small_spec(n_disks=2), role="storage")
    oss1 = cluster.add_node("oss1", small_spec(n_disks=2), role="storage")
    pfs = PFS(env, cluster.network, oss0, [oss0, oss1],
              default_layout=StripeLayout(stripe_size=64, stripe_count=4))
    return env, pfs, [PFSClient(pfs, node) for node in ranks]


@pytest.mark.parametrize("seed", [2, 9, 31])
def test_write_at_all_matches_legacy(seed, golden, transfers):
    """Default-knob MPIFile.write_at_all ≡ the two-phase collective over
    unbounded stripe pushes."""
    rng = random.Random(seed)
    total = 2000
    cuts = sorted(rng.sample(range(1, total), 3))
    bounds = list(zip([0, *cuts], [*cuts, total]))
    data = payload(total, seed=seed)
    requests = [
        None if rng.random() < 0.25 else (lo, data[lo:hi])
        for lo, hi in bounds
    ]
    if all(req is None for req in requests):
        requests[0] = (bounds[0][0], data[bounds[0][0]:bounds[0][1]])

    env, pfs, clients = make_mpi_world(n_ranks=len(requests))
    # pre-store a full base file so non-writer ranks' holes read back
    # as defined bytes
    pfs.store_file("/out", payload(total, seed=seed + 500))
    handle = MPIFile.open(clients, "/out")
    run(env, handle.write_at_all(requests))
    stored = pfs.read_file_sync("/out")
    assert zlib.crc32(stored) == golden["crc"]
    for req in requests:
        if req is not None:
            assert stored[req[0]:req[0] + len(req[1])] == req[1]
    assert env.now == pytest.approx(golden["elapsed"], abs=TOL)
    assert transfers[0] == golden["transfers"]


# ----------------------------------------------- non-default knob sanity
def test_packet_pipeline_is_faster_and_byte_identical():
    """The non-default pipeline must beat store-and-forward at
    replication 3 while storing the same bytes in the same placements."""
    data = payload(600, seed=13)

    def drive(packet_bytes):
        env, hdfs, _client = make_hdfs_world(replication=3)
        client = hdfs.client(hdfs.datanode(list(hdfs._datanodes)[0]).node,
                             packet_bytes=packet_bytes)
        run(env, client.write("/f", data))
        locations = [tuple(b.locations) for b
                     in hdfs.namenode.get_block_locations("/f")]
        return env.now, locations, hdfs.read_file_sync("/f")

    slow_now, slow_locs, slow_bytes = drive(packet_bytes=None)
    fast_now, fast_locs, fast_bytes = drive(packet_bytes=25)
    assert fast_bytes == slow_bytes == data
    assert fast_locs == slow_locs
    assert fast_now < slow_now


def test_parallel_blocks_faster_and_byte_identical():
    data = payload(700, seed=21)

    def drive(window):
        env, hdfs, _client = make_hdfs_world(replication=2)
        client = hdfs.client(hdfs.datanode(list(hdfs._datanodes)[0]).node,
                             packet_bytes=25, write_parallel_blocks=window)
        run(env, client.write("/f", data))
        return env.now, hdfs.read_file_sync("/f")

    serial_now, serial_bytes = drive(window=1)
    fanned_now, fanned_bytes = drive(window=0)
    assert fanned_bytes == serial_bytes == data
    assert fanned_now < serial_now


def test_pfs_chunked_windowed_write_byte_identical():
    """Chunked + windowed stripe pushes store exactly the same bytes."""
    data = payload(1357, seed=23)

    def drive(write_chunk, window):
        env, pfs, _client = make_pfs_world(stripe_size=100, stripe_count=4)
        client = pfs.client(_client.node, write_max_inflight=window,
                            write_chunk=write_chunk)
        run(env, client.write("/f", data, offset=41))
        return pfs.read_file_sync("/f")

    assert drive(None, 0) == drive(64, 3)
