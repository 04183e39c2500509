"""Functional + timing tests for the PFS (MDS, OST, client)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.planner import coalesce_extents
from repro.pfs import PFS, PFSClient, PFSError, StripeLayout
from repro.pfs.layout import Extent

from tests.pfs.conftest import run, small_spec


def payload(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()


# --------------------------------------------------------------- metadata
def test_store_and_lookup(world):
    env, _cluster, pfs, _clients = world
    data = payload(250)
    inode = pfs.store_file("/out/file.nc", data)
    assert inode.size == 250
    assert pfs.mds.lookup("/out/file.nc").inode_id == inode.inode_id
    assert pfs.read_file_sync("/out/file.nc") == data


def test_duplicate_create_rejected(world):
    _env, _cluster, pfs, _clients = world
    pfs.store_file("/a", b"x")
    with pytest.raises(PFSError):
        pfs.store_file("/a", b"y")


def test_listdir_flat(world):
    _env, _cluster, pfs, _clients = world
    pfs.store_file("/dir/a.nc", b"1")
    pfs.store_file("/dir/b.csv", b"2")
    pfs.store_file("/dir/sub/c", b"3")
    pfs.store_file("/other", b"4")
    assert pfs.mds.listdir("/dir") == ["/dir/a.nc", "/dir/b.csv"]


def test_unlink_frees_objects(world):
    _env, _cluster, pfs, _clients = world
    inode = pfs.store_file("/x", payload(500))
    pfs.unlink("/x")
    assert not pfs.mds.exists("/x")
    for g in inode.osts:
        assert not pfs.osts[g].has_object(inode.inode_id)


def test_path_normalization(world):
    _env, _cluster, pfs, _clients = world
    pfs.store_file("a/b", b"x")
    assert pfs.mds.exists("/a/b")
    assert pfs.mds.lookup("//a///b").size == 1


# ------------------------------------------------------------ client read
def test_client_read_roundtrip(world):
    env, _cluster, pfs, clients = world
    data = payload(437)
    pfs.store_file("/f", data)
    got = run(env, clients[0].read("/f"))
    assert got == data
    assert clients[0].bytes_read == 437


def test_client_read_subrange(world):
    env, _cluster, pfs, clients = world
    data = payload(1000)
    pfs.store_file("/f", data)
    got = run(env, clients[0].read("/f", offset=123, length=456))
    assert got == data[123:579]


def test_client_read_past_eof_rejected(world):
    env, _cluster, pfs, clients = world
    pfs.store_file("/f", payload(10))

    def proc():
        yield from clients[0].read("/f", offset=5, length=10)

    with pytest.raises(PFSError):
        run(env, proc())


def test_read_crossing_stripes_preserves_order(world):
    env, _cluster, pfs, clients = world
    # stripe_size=100, count=4: this range interleaves all four OSTs twice.
    data = payload(900, seed=3)
    pfs.store_file("/f", data)
    got = run(env, clients[0].read("/f", offset=50, length=800))
    assert got == data[50:850]


def test_parallel_osts_speed_up_reads():
    """Striping over 4 OSTs must beat 1 OST for a large read."""
    from repro.cluster import Cluster
    from repro.sim import Environment

    def timed_read(stripe_count):
        env = Environment()
        cluster = Cluster(env)
        c0 = cluster.add_node("c0", small_spec(nic_bw=10**9), role="compute")
        oss = cluster.add_node(
            "oss", small_spec(disk_bw=1000.0, n_disks=4, nic_bw=10**9),
            role="storage")
        pfs = PFS(env, cluster.network, oss, [oss])
        layout = StripeLayout(stripe_size=100, stripe_count=stripe_count)
        pfs.store_file("/f", payload(4000), layout)
        client = PFSClient(pfs, c0)
        run(env, client.read("/f"))
        return env.now

    assert timed_read(4) < timed_read(1) / 2


def test_write_then_read_back(world):
    env, _cluster, pfs, clients = world
    data = payload(321)

    def proc():
        yield env.process(clients[0].write("/new", data))
        got = yield env.process(clients[1].read("/new"))
        return got

    assert run(env, proc()) == data


def test_write_accounts_bytes_written(world):
    """bytes_written parity with bytes_read (and with DFSClient): every
    completed write rolls into the client's counter."""
    env, _cluster, _pfs, clients = world
    assert clients[0].bytes_written == 0

    def proc():
        yield env.process(clients[0].write("/new", payload(321)))
        yield env.process(clients[0].write("/new", payload(100), offset=50))

    run(env, proc())
    assert clients[0].bytes_written == 421
    assert clients[1].bytes_written == 0


def test_write_takes_time(world):
    env, _cluster, pfs, clients = world

    def proc():
        yield env.process(clients[0].write("/new", payload(5000)))

    run(env, proc())
    assert env.now > 0


def test_client_stat_charges_metadata_rpc(world):
    env, _cluster, pfs, clients = world
    pfs.store_file("/f", b"abc")
    run(env, clients[0].stat("/f"))
    assert env.now == pytest.approx(0.0005)


# ------------------------------------------------------------- coalescing
def test_coalesce_merges_object_adjacent_runs():
    layout = StripeLayout(stripe_size=10, stripe_count=2)
    exts = layout.map_range(0, 40)  # 4 stripes alternating OSTs
    per_ost = coalesce_extents(exts)
    # Each OST's two stripes are object-adjacent -> one run of 20.
    assert sorted(per_ost) == [0, 1]
    for runs in per_ost.values():
        assert len(runs) == 1
        assert runs[0].length == 20


def test_coalesce_keeps_gaps_apart():
    layout = StripeLayout(stripe_size=10, stripe_count=1)
    exts = (layout.map_range(0, 10) + layout.map_range(30, 10))
    per_ost = coalesce_extents(exts)
    assert len(per_ost[0]) == 2


def test_coalesce_out_of_order_extents_still_merge():
    """Input order must not matter: runs sort by object offset."""
    exts = [
        Extent(ost_index=0, object_offset=20, file_offset=40, length=10),
        Extent(ost_index=0, object_offset=0, file_offset=0, length=10),
        Extent(ost_index=0, object_offset=10, file_offset=20, length=10),
    ]
    per_ost = coalesce_extents(exts)
    assert list(per_ost) == [0]
    (run,) = per_ost[0]
    assert (run.object_offset, run.length) == (0, 30)
    # The merged run keeps the first constituent's file offset so the
    # reassembly maths anchors on the run's start.
    assert run.file_offset == 0


def test_coalesce_single_byte_extents():
    """Degenerate 1-byte extents: adjacent ones merge, gapped stay."""
    exts = [Extent(ost_index=0, object_offset=i, file_offset=i, length=1)
            for i in (0, 1, 2, 5)]
    per_ost = coalesce_extents(exts)
    runs = per_ost[0]
    assert [(r.object_offset, r.length) for r in runs] == [(0, 3), (5, 1)]


def test_coalesce_adjacent_offsets_on_different_osts_stay_apart():
    """Object adjacency only merges within one OST's object."""
    exts = [
        Extent(ost_index=0, object_offset=0, file_offset=0, length=10),
        Extent(ost_index=1, object_offset=10, file_offset=10, length=10),
        Extent(ost_index=0, object_offset=10, file_offset=20, length=10),
    ]
    per_ost = coalesce_extents(exts)
    assert len(per_ost[0]) == 1 and per_ost[0][0].length == 20
    assert len(per_ost[1]) == 1 and per_ost[1][0].length == 10


def test_fewer_rpcs_for_aligned_reads(world):
    """Reading the whole file coalesces into one run per OST."""
    env, _cluster, pfs, clients = world
    pfs.store_file("/f", payload(800))  # 8 stripes over 4 OSTs
    inode = pfs.mds.lookup("/f")
    exts = inode.layout.map_range(0, 800)
    per_ost = coalesce_extents(exts)
    assert all(len(runs) == 1 for runs in per_ost.values())


# ------------------------------------------------------------- sync view
def test_sync_view_seek_read(world):
    _env, _cluster, pfs, _clients = world
    data = payload(500)
    pfs.store_file("/f", data)
    view = pfs.open_sync("/f")
    view.seek(100)
    assert view.read(50) == data[100:150]
    assert view.tell() == 150
    view.seek(-10, 2)
    assert view.read() == data[-10:]
    view.seek(0)
    assert view.read() == data


def test_scinc_file_readable_from_pfs(world):
    """End-to-end: an SCNC container stored on PFS serves hyperslabs."""
    import io
    from repro.formats import Dataset, scinc

    _env, _cluster, pfs, _clients = world
    arr = np.arange(60, dtype=np.float32).reshape(3, 4, 5)
    ds = Dataset()
    ds.create_variable("qr", ("z", "y", "x"), arr, chunk_shape=(1, 4, 5))
    buf = io.BytesIO()
    scinc.write(buf, ds)
    pfs.store_file("/plot_18_00_00.nc", buf.getvalue())

    reader = scinc.Reader(pfs.open_sync("/plot_18_00_00.nc"))
    np.testing.assert_array_equal(
        reader.get_vara("/qr", (1, 0, 0), (1, 4, 5)), arr[1:2])


# ------------------------------------------------------------- property
@given(
    size=st.integers(min_value=1, max_value=600),
    offset_frac=st.floats(min_value=0, max_value=1),
    stripe_size=st.integers(min_value=1, max_value=64),
    stripe_count=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_property_striped_roundtrip(size, offset_frac, stripe_size,
                                    stripe_count):
    from repro.cluster import Cluster
    from repro.sim import Environment

    env = Environment()
    cluster = Cluster(env)
    c0 = cluster.add_node("c0", small_spec(), role="compute")
    oss = cluster.add_node("oss", small_spec(n_disks=4), role="storage")
    pfs = PFS(env, cluster.network, oss, [oss])
    data = payload(size, seed=size)
    pfs.store_file("/f", data,
                   StripeLayout(stripe_size=stripe_size,
                                stripe_count=stripe_count))
    client = PFSClient(pfs, c0)
    offset = int(offset_frac * (size - 1))
    length = size - offset
    got = run(env, client.read("/f", offset=offset, length=length))
    assert got == data[offset:offset + length]
