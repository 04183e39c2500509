"""Shared fixtures for the unified data plane tests.

The equivalence tests rebuild the worlds ``tests/golden/io.json`` was
recorded in, so the builders here must stay deterministic.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, DiskSpec, LinkSpec, NodeSpec
from repro.hdfs import HDFS
from repro.pfs import PFS, PFSClient, StripeLayout
from repro.sim import Environment, SharedBandwidth

from tests.golden import load_golden

GOLDEN = load_golden("io")["cases"]


def small_spec(disk_bw=1000.0, n_disks=1, nic_bw=10_000.0):
    return NodeSpec(
        cpus=4,
        memory=10**9,
        disks=tuple(DiskSpec(bandwidth=disk_bw, seek_latency=0.0)
                    for _ in range(n_disks)),
        nic=LinkSpec(bandwidth=nic_bw, latency=0.0),
    )


def make_pfs_world(stripe_size=100, stripe_count=4):
    """One compute node + MDS + 2 OSS x 2 OSTs; returns (env, pfs, client)."""
    env = Environment()
    cluster = Cluster(env)
    c0 = cluster.add_node("c0", small_spec(), role="compute")
    mds = cluster.add_node("mds", small_spec(), role="storage")
    oss0 = cluster.add_node("oss0", small_spec(n_disks=2), role="storage")
    oss1 = cluster.add_node("oss1", small_spec(n_disks=2), role="storage")
    pfs = PFS(env, cluster.network, mds, [oss0, oss1],
              default_layout=StripeLayout(stripe_size=stripe_size,
                                          stripe_count=stripe_count))
    return env, pfs, PFSClient(pfs, c0)


@pytest.fixture
def combined_world():
    """PFS + HDFS sharing one cluster (registry / protocol tests)."""
    env = Environment()
    cluster = Cluster(env)
    nodes = [cluster.add_node(f"n{i}", small_spec(), role="compute")
             for i in range(2)]
    mds = cluster.add_node("mds", small_spec(), role="storage")
    oss = cluster.add_node("oss", small_spec(n_disks=2), role="storage")
    pfs = PFS(env, cluster.network, mds, [oss],
              default_layout=StripeLayout(stripe_size=100, stripe_count=2))
    hdfs = HDFS(env, cluster.network, block_size=100, replication=1)
    for node in nodes:
        hdfs.add_datanode(node)
    return env, cluster, pfs, hdfs, nodes


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def payload(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()


@pytest.fixture
def golden(request):
    """The recorded case of the running test (keyed by test id)."""
    return GOLDEN[request.node.name]


@pytest.fixture
def transfers(monkeypatch):
    """Counts ``SharedBandwidth.transfer`` calls (disk and link requests
    issued) while the test runs; read the count as ``transfers[0]``."""
    calls = [0]
    transfer = SharedBandwidth.transfer

    def counted(self, nbytes, latency=0.0):
        calls[0] += 1
        return transfer(self, nbytes, latency)

    monkeypatch.setattr(SharedBandwidth, "transfer", counted)
    return calls
