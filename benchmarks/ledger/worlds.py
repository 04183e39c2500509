"""Simulated worlds the ledger builds itself, from public constructors.

The NU-WRF workloads use :func:`repro.workloads.solutions.build_world`;
the two Hadoop-benchmark workloads (``mr_records``, ``dfsio_rw``) need
the Fig. 2 testbed — 8 Hadoop nodes beside a Lustre with 8 OSTs behind
the HDFS connector — which only the figure harness builds. It is
rebuilt here so the ledger never imports ``repro.bench``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import costs
from repro.cluster import Cluster, DiskSpec, LinkSpec, NodeSpec
from repro.hdfs import HDFS, PFSConnector
from repro.pfs import PFS, StripeLayout
from repro.sim import Environment

MB = 1024 * 1024

#: real bytes are 1/HADOOP_SCALE of the modelled bytes, devices slowed
#: to match (the Fig. 2 convention), so a 1 MB file models 64 MB
HADOOP_SCALE = 64


@dataclass
class HadoopWorld:
    env: Environment
    nodes: list
    network: object
    hdfs: HDFS
    connector: PFSConnector

    @property
    def storages(self):
        """(tag, storage facade, diskless spill) — the connector
        deployment is diskless, as in Fig. 2."""
        return (("hdfs", self.hdfs, False),
                ("conn", self.connector, True))


def hadoop_world(replication: int = 1) -> HadoopWorld:
    """8 compute nodes with native HDFS, plus a 2-OSS/8-OST PFS reached
    through :class:`~repro.hdfs.PFSConnector` (stripe = block size)."""
    scale = HADOOP_SCALE
    costs.set_scale(scale)
    block_size = 64 * MB // scale
    env = Environment()
    cluster = Cluster(env)
    nic = LinkSpec(bandwidth=1.125e9 / scale, latency=0.0001)
    node_spec = NodeSpec(
        cpus=8, memory=4 * 1024**3,
        disks=(DiskSpec(bandwidth=120 * MB / scale, seek_latency=0.008),),
        nic=nic)
    oss_spec = NodeSpec(
        cpus=8, memory=4 * 1024**3,
        disks=tuple(DiskSpec(bandwidth=160 * MB / scale,
                             seek_latency=0.008) for _ in range(4)),
        nic=nic)
    nodes = [cluster.add_node(f"n{i}", node_spec, role="compute")
             for i in range(8)]
    oss = [cluster.add_node(f"oss{i}", oss_spec, role="storage")
           for i in range(2)]
    pfs = PFS(env, cluster.network, oss[0], oss,
              default_layout=StripeLayout(stripe_size=block_size,
                                          stripe_count=8))
    hdfs = HDFS(env, cluster.network, block_size=block_size,
                replication=replication)
    for node in nodes:
        hdfs.add_datanode(node)
    connector = PFSConnector(pfs, block_size=block_size,
                             rpc_size=512 * 1024 // scale)
    return HadoopWorld(env, nodes, cluster.network, hdfs, connector)


def run_des(env, generator):
    """Run one DES process to completion and return its value."""
    proc = env.process(generator)
    env.run()
    return proc.value
