"""Edge-case coverage across modules: validation paths, small helpers,
and behaviours no scenario test exercises directly."""

import numpy as np
import pytest

from repro.cluster import Cluster, Network, Node, NodeSpec
from repro.hdfs.block import VirtualBlock
from repro.mapreduce import Counters
from repro.mapreduce.runtime import JobResult
from repro.mapreduce.task import TaskContext, TaskStats
from repro.sim import Environment


# ----------------------------------------------------------------- cluster
def test_node_compute_rejects_negative():
    env = Environment()
    node = Node(env, "n")
    with pytest.raises(ValueError):
        node.compute(-1)


def test_network_transfer_rejects_negative():
    env = Environment()
    net = Network(env)
    a, b = Node(env, "a"), Node(env, "b")
    with pytest.raises(ValueError):
        net.transfer(a, b, -5)


def test_zero_byte_network_transfer_instant():
    env = Environment()
    net = Network(env)
    a, b = Node(env, "a"), Node(env, "b")
    done = []

    def proc():
        yield net.transfer(a, b, 0)
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0.0]
    assert net.bytes_moved == 0


def test_cluster_getitem_and_len():
    env = Environment()
    c = Cluster(env)
    node = c.add_node("x")
    assert c["x"] is node
    assert len(c) == 1


# -------------------------------------------------------------- hdfs block
def test_virtual_block_validation():
    with pytest.raises(ValueError):
        VirtualBlock(source_path="/f", offset=-1, length=5)
    with pytest.raises(ValueError):
        VirtualBlock(source_path="/f", offset=0, length=-5)
    vb = VirtualBlock(source_path="/f", offset=0, length=5)
    assert vb.hyperslab is None


# ---------------------------------------------------------------- counters
def test_counters_merge_and_groups():
    a = Counters()
    a.increment("io", "bytes", 5)
    b = Counters()
    b.increment("io", "bytes", 7)
    b.increment("map", "records", 1)
    a.merge(b)
    assert a.value("io", "bytes") == 12
    assert a.group("io") == {"bytes": 12}
    assert a.group("missing") == {}
    assert a.as_dict() == {"io": {"bytes": 12}, "map": {"records": 1}}
    assert a.value("nope", "nothing") == 0


# --------------------------------------------------------------- job result
def test_job_result_helpers():
    result = JobResult(name="j", start=1.0, end=5.0, counters=Counters())
    assert result.duration == 4.0
    result.task_stats = [
        TaskStats("m1", "map", "n0", 0, 2, {"read": 1.0, "plot": 0.5}),
        TaskStats("m2", "map", "n1", 0, 4, {"read": 3.0}),
        TaskStats("r1", "reduce", "n0", 4, 5, {"write": 0.2}),
    ]
    assert len(result.stats_for("map")) == 2
    means = result.phase_means("map")
    assert means["read"] == pytest.approx(2.0)
    assert means["plot"] == pytest.approx(0.25)
    assert result.phase_means("shuffle-only") == {}
    assert result.task_stats[0].duration == 2


# ------------------------------------------------------------ task context
def test_task_context_charge_validation():
    env = Environment()
    node = Node(env, "n")
    from repro.mapreduce import JobConf, TextInputFormat
    job = JobConf(name="j", mapper=lambda *a: None,
                  input_format=TextInputFormat(), input_paths=["/x"])
    ctx = TaskContext(env, node, job, "t1")
    with pytest.raises(ValueError):
        ctx.charge(-1)
    with pytest.raises(ValueError):
        ctx.defer_io("append", "/x", b"")
    ctx.emit("k", 1)
    assert ctx.take_output() == [("k", 1)]
    assert ctx.take_output() == []


# --------------------------------------------------------------- explorer
def test_explorer_without_io_charges_is_instant():
    import io
    from repro.core import FileExplorer
    from repro.formats import Dataset, scinc
    from repro.pfs import PFS, PFSClient

    env = Environment()
    cluster = Cluster(env)
    c0 = cluster.add_node("c0")
    oss = cluster.add_node("oss", NodeSpec())
    pfs = PFS(env, cluster.network, oss, [oss])
    ds = Dataset()
    ds.create_variable("v", ("x",), np.zeros(4, dtype=np.float32))
    buf = io.BytesIO()
    scinc.write(buf, ds)
    pfs.store_file("/d/a.nc", buf.getvalue())

    explorer = FileExplorer(PFSClient(pfs, c0))
    proc = env.process(explorer.explore("/d", charge_io=False))
    env.run()
    explored = proc.value
    # Only the listdir metadata RPC was charged.
    assert env.now == pytest.approx(0.0005)
    assert explored[0].format == "scinc"


# ----------------------------------------------------------------- costs
def test_parse_csv_fast_empty_and_headerless():
    from repro.formats.text import parse_csv_fast
    assert parse_csv_fast(b"") == {}
    assert parse_csv_fast(b"#vars:QR\n") == {}
    out = parse_csv_fast(b"0,0,0,1.5\n0,0,1,2.5\n")
    np.testing.assert_allclose(out["var0"], [[1.5, 2.5]])


# ------------------------------------------------------------- rmr session
def test_rmr_session_multiple_inputs():
    from repro.cluster import DiskSpec, LinkSpec
    from repro.hdfs import HDFS
    from repro.mapreduce import TextInputFormat
    from repro.rlang.rmr import RMRSession, keyval

    env = Environment()
    cluster = Cluster(env)
    spec = NodeSpec(cpus=4, memory=10**9,
                    disks=(DiskSpec(bandwidth=10**6),),
                    nic=LinkSpec(bandwidth=10**7))
    nodes = [cluster.add_node(f"n{i}", spec) for i in range(2)]
    hdfs = HDFS(env, cluster.network, block_size=1000)
    for node in nodes:
        hdfs.add_datanode(node)
    hdfs.store_file_sync("/a/x.txt", b"p\n")
    hdfs.store_file_sync("/b/y.txt", b"q\n")
    session = RMRSession(env, nodes, hdfs, cluster.network)
    proc = env.process(session.mapreduce(
        input=["/a", "/b"], map=lambda k, v: keyval(v, 1),
        input_format=TextInputFormat(), name="multi"))
    env.run()
    assert sorted(k for k, _ in proc.value.map_records) == [b"p", b"q"]
