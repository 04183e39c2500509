"""StorageClient protocol conformance and the unified read_block surface."""

import inspect

from repro.hdfs.block import BlockInfo, VirtualBlock
from repro.hdfs.connector import PFSConnector
from repro.io import READ_BLOCK_KWARGS, StorageClient, StorageFacade

from tests.io.conftest import combined_world, payload, run  # noqa: F401


def all_clients(pfs, hdfs, node):
    """One node-bound client per registered backend kind."""
    connector = PFSConnector(pfs, block_size=100)
    return {
        "pfs": pfs.client(node),
        "hdfs": hdfs.client(node),
        "connector": connector.client(node),
    }, connector


def test_every_backend_satisfies_storage_client(combined_world):
    _env, _cluster, pfs, hdfs, nodes = combined_world
    clients, _connector = all_clients(pfs, hdfs, nodes[0])
    for name, client in clients.items():
        assert isinstance(client, StorageClient), name


def test_facades_satisfy_storage_facade(combined_world):
    _env, _cluster, pfs, hdfs, _nodes = combined_world
    for facade in (pfs, hdfs, PFSConnector(pfs)):
        assert isinstance(facade, StorageFacade), type(facade).__name__


def test_read_block_signatures_are_uniform(combined_world):
    """Satellite: every backend's read_block takes the same kwargs."""
    _env, _cluster, pfs, hdfs, nodes = combined_world
    clients, _connector = all_clients(pfs, hdfs, nodes[0])
    for name, client in clients.items():
        params = inspect.signature(client.read_block).parameters
        for kwarg in READ_BLOCK_KWARGS:
            assert kwarg in params, f"{name}.read_block missing {kwarg!r}"


def test_read_block_kwargs_accepted_by_all_backends(combined_world):
    """The same read_block call shape works against every backend."""
    env, _cluster, pfs, hdfs, nodes = combined_world
    data = payload(250)
    hdfs.store_file_sync("/h/file", data)
    pfs.store_file("/p/file", data)
    clients, connector = all_clients(pfs, hdfs, nodes[0])

    hdfs_block = hdfs.namenode.get_block_locations("/h/file")[0]
    conn_block = connector.get_blocks("/p/file")[0]
    virt_block = BlockInfo(
        block_id=-100, length=100,
        virtual=VirtualBlock(source_path="/p/file", offset=0, length=100))
    blocks = {"pfs": virt_block, "hdfs": hdfs_block,
              "connector": conn_block}

    for name, client in clients.items():
        got = run(env, client.read_block(
            blocks[name], offset=10, length=50, max_inflight=2))
        assert got == data[10:60], name


def test_metadata_surface_uniform(combined_world):
    """stat/listdir/exists/delete behave across backends."""
    env, _cluster, pfs, hdfs, nodes = combined_world
    hdfs.store_file_sync("/h/a", payload(40))
    pfs.store_file_sync("/p/a", payload(40))
    clients, _connector = all_clients(pfs, hdfs, nodes[0])

    for name, client in clients.items():
        path = "/h/a" if name == "hdfs" else "/p/a"
        assert run(env, client.exists(path)) is True, name
        entry = run(env, client.stat(path))
        assert entry.size == 40, name
        listing = run(env, client.listdir(path.rsplit("/", 1)[0]))
        assert path in listing, name

    # delete through every client (the connector shares the PFS namespace)
    pfs.store_file_sync("/p/b", payload(8))
    for name, path in (("hdfs", "/h/a"), ("pfs", "/p/a"),
                       ("connector", "/p/b")):
        run(env, clients[name].delete(path))
        assert run(env, clients[name].exists(path)) is False, name


def test_read_extents_uniform(combined_world):
    """(offset, length) extent reads return identical bytes everywhere."""
    env, _cluster, pfs, hdfs, nodes = combined_world
    data = payload(300, seed=3)
    hdfs.store_file_sync("/h/x", data)
    pfs.store_file("/p/x", data)
    clients, _connector = all_clients(pfs, hdfs, nodes[0])
    ranges = [(5, 40), (120, 30), (250, 50)]
    expected = b"".join(data[o:o + n] for o, n in ranges)

    for name, client in clients.items():
        path = "/h/x" if name == "hdfs" else "/p/x"
        got = run(env, client.read_extents(path, ranges, max_inflight=2))
        assert got == expected, name
