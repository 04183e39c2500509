"""Production shuffle vs naive oracles and the recorded reduce path.

The shuffle's arithmetic (partitioning, merging, size estimates) is
checked against the scalar references in ``tests/oracles.py``: identical
partition assignments, identical merged record streams, identical
sizes. With every shuffle knob at its default (overlap off, no parallel
copies, single-attempt fetches, unbounded merge) the reduce task must
also reproduce the serial-barrier task it replaced — one ``AllOf`` over
every map output, a materializing merge — whose job/task timings,
counters and output digest are recorded in
``tests/golden/mapreduce.json`` and checked to 1e-9.
"""

import random

import pytest

from repro.mapreduce import JobConf, JobRunner, TextInputFormat
from repro.mapreduce import shuffle
from repro.mapreduce.shuffle import (
    estimate_records,
    estimate_size,
    hash_partition,
    hash_partition_many,
    merge_sorted_runs,
    sort_run,
)

from tests.golden import digest, load_golden
from tests.mapreduce.conftest import run
from tests.oracles import (
    naive_estimate_size,
    naive_hash_partition,
    naive_merge_sorted_runs,
)

GOLDEN = load_golden("mapreduce")["cases"]


# ------------------------------------------------------ pure functions

def random_key(rng):
    kind = rng.randrange(6)
    if kind == 0:   # bytes across the vectorization threshold
        return bytes(rng.randrange(256)
                     for _ in range(rng.randrange(0, 200)))
    if kind == 1:   # str (memoized encode path)
        return "".join(chr(rng.randrange(32, 0x2FF))
                       for _ in range(rng.randrange(0, 120)))
    if kind == 2:
        return rng.randrange(-2**40, 2**40)
    if kind == 3:   # tuple (mixed-modulus fold)
        return tuple(random_key(rng) for _ in range(rng.randrange(0, 4))
                     ) or ("empty",)
    if kind == 4:
        return rng.random() * 1e6   # repr fallback
    return rng.choice([True, False, None])


@pytest.mark.parametrize("seed", [3, 71, 20240806])
def test_hash_partition_matches_legacy_fold(seed):
    rng = random.Random(seed)
    for _ in range(500):
        key = random_key(rng)
        n = rng.choice([1, 2, 7, 64, 1009])
        assert hash_partition(key, n) == naive_hash_partition(key, n), key


def test_hash_partition_vector_path_exact_on_long_keys():
    # Long keys exercise the uint64-wraparound congruence argument.
    for n in [31, 32, 33, 1000, 65536]:
        key = bytes((i * 37 + 11) % 256 for i in range(n))
        assert hash_partition(key, 0x7FFFFFFF) == \
            naive_hash_partition(key, 0x7FFFFFFF)


@pytest.mark.parametrize("seed", [5, 13])
def test_streaming_merge_matches_legacy_merge(seed):
    rng = random.Random(seed)
    for _ in range(50):
        runs = [
            sort_run([(rng.choice("abcde"), rng.randrange(10))
                      for _ in range(rng.randrange(0, 12))])
            for _ in range(rng.randrange(0, 6))
        ]
        assert merge_sorted_runs(runs) == naive_merge_sorted_runs(runs)


def test_streaming_merge_equal_key_order_matches_legacy():
    # Equal keys must come out in run order then record order.
    runs = [[("k", 0), ("k", 1)], [("k", 2)], [("a", 9), ("k", 3)]]
    assert merge_sorted_runs(runs) == naive_merge_sorted_runs(runs)


def test_estimate_size_matches_legacy_on_acyclic_structures():
    rng = random.Random(42)

    def random_obj(depth=0):
        if depth > 3 or rng.random() < 0.4:
            return rng.choice([
                None, True, b"xy", "s", 7, 1.5,
                bytes(rng.randrange(20))])
        kind = rng.randrange(3)
        children = [random_obj(depth + 1)
                    for _ in range(rng.randrange(0, 4))]
        if kind == 0:
            return children
        if kind == 1:
            return tuple(children)
        return {i: c for i, c in enumerate(children)}

    for _ in range(200):
        obj = random_obj()
        assert estimate_size(obj) == naive_estimate_size(obj)


def test_estimate_size_shared_substructure_counted_like_legacy():
    shared = [b"payload"]
    obj = [shared, shared]  # a DAG, not a cycle: both copies count
    assert estimate_size(obj) == naive_estimate_size(obj)


# ------------------------------------------- run-at-a-time batch calls

class TaggedBytes(bytes):
    """A ``bytes`` subclass: must take the scalar fallback, not the
    exact-type matrix fold."""


def _random_bytes(rng, n):
    return bytes(rng.randrange(256) for _ in range(n))


def key_sets(rng):
    """Named key runs covering every branch of the batch partitioner."""
    edge = shuffle._VECTOR_MIN_BYTES
    yield "empty run", []
    yield "zero-length keys only", [b"", b""]
    yield "fixed width", [_random_bytes(rng, 10) for _ in range(300)]
    yield "lengths straddling the scalar/vector edge", [
        _random_bytes(rng, rng.randrange(0, 2 * edge)) for _ in range(300)
    ] + [b"", _random_bytes(rng, edge - 1), _random_bytes(rng, edge),
         _random_bytes(rng, edge + 1)]
    yield "keys over 255 bytes", [
        _random_bytes(rng, rng.choice([1, 255, 256, 257, 700, 3000]))
        for _ in range(60)]
    yield "leading and all-zero bytes", [
        b"\0", b"\0\0a", b"a", b"\0" * 40, b"\0" * 40 + b"a", b"\xff" * 64]
    yield "non-ASCII str", ["".join(
        chr(rng.choice([rng.randrange(32, 127), rng.randrange(0xA0, 0x2FF),
                        rng.randrange(0x4E00, 0x4F00), 0x1F600]))
        for _ in range(rng.randrange(0, 50))) for _ in range(200)] + [""]
    yield "ints", [rng.randrange(-2**40, 2**40) for _ in range(100)]
    yield "tuples", [(rng.randrange(9), _random_bytes(rng, 4), "x")
                     for _ in range(100)]
    yield "mixed types", [random_key(rng) for _ in range(300)]
    yield "bytes and str mixed", [b"ab", "ab", b"", ""]
    yield "bytes subclass", [TaggedBytes(b"abc"), TaggedBytes(b"x" * 80)]
    yield "bytes subclass among bytes", [b"abc", TaggedBytes(b"abc")]
    yield "more keys than one matrix", [
        _random_bytes(rng, rng.randrange(0, 12))
        for _ in range(2 * shuffle._BATCH_ROWS + 17)]
    # one long key makes the padded slice too big: scalar fold per key
    yield "padding over the cell budget", [
        _random_bytes(rng, 3) for _ in range(shuffle._BATCH_ROWS - 1)
    ] + [_random_bytes(rng, 1 + shuffle._BATCH_CELLS
                       // shuffle._BATCH_ROWS)]


@pytest.mark.parametrize("seed", [11, 20260928])
def test_batch_partition_matches_legacy_fold_per_key(seed):
    rng = random.Random(seed)
    for name, keys in key_sets(rng):
        for n in [1, 4, 7, 1009, 0x7FFFFFFF]:
            assert hash_partition_many(keys, n) == [
                naive_hash_partition(key, n) for key in keys], (name, n)


def test_partition_run_keeps_record_order_inside_each_bucket():
    rng = random.Random(8)
    records = [(_random_bytes(rng, 6), i) for i in range(500)]
    buckets = shuffle.partition_run(records, 5)
    assert [
        [kv for kv in records if naive_hash_partition(kv[0], 5) == p]
        for p in range(5)] == buckets


def _random_runs(rng, make_key):
    return [
        sort_run([(make_key(), rng.randrange(10))
                  for _ in range(rng.randrange(0, 14))])
        for _ in range(rng.randrange(0, 7))]


@pytest.mark.parametrize("seed", [2, 99])
def test_batch_merge_matches_legacy_merge_record_for_record(seed):
    """Duplicate keys inside and across runs (stability), empty runs,
    one-type and mixed-type runs."""
    rng = random.Random(seed)
    makers = [
        lambda: rng.choice([b"a", b"b", b"bb", b""]),
        lambda: rng.randrange(4),
        lambda: rng.choice([1, "1", b"1", 2, "b", (1, "x"), (1, "y")]),
    ]
    for make_key in makers:
        for _ in range(60):
            runs = _random_runs(rng, make_key)
            merged = merge_sorted_runs(runs)
            assert merged == naive_merge_sorted_runs(runs)
            assert merged == list(shuffle.merge_sorted_streams(runs))
    assert merge_sorted_runs([]) == []
    assert merge_sorted_runs([[], []]) == []


def test_estimate_records_is_the_sum_of_legacy_sizes():
    rng = random.Random(17)
    values = [None, True, 7, 1.5, "s\u00e9", b"xy", bytearray(b"abc"),
              [b"ab", 3], {"k": (1, 2)}, TaggedBytes(b"abcd")]
    columns = [
        lambda: _random_bytes(rng, rng.randrange(0, 40)),   # all bytes
        lambda: rng.choice(values),                         # anything
    ]
    for make_key in columns:
        for make_value in columns:
            for n in [0, 1, 50]:
                records = [(make_key(), make_value()) for _ in range(n)]
                assert estimate_records(records) == sum(
                    naive_estimate_size(k) + naive_estimate_size(v)
                    for k, v in records)


# ------------------------------------------------- recorded job runs

TEXT = (b"the quick brown fox\njumps over the lazy dog\n"
        b"the dog barks\nfox and dog\n") * 25


def wc_map(ctx, _offset, line):
    for word in line.split():
        ctx.emit(word, 1)
    ctx.charge(1e-6 * len(line))


def wc_reduce(ctx, key, values):
    ctx.emit(key, sum(values))
    ctx.charge(1e-7 * len(values))


def fresh_world():
    from repro.cluster import Cluster
    from repro.hdfs import HDFS
    from repro.sim import Environment
    from tests.mapreduce.conftest import small_spec

    env = Environment()
    cluster = Cluster(env)
    nodes = [cluster.add_node(f"n{i}", small_spec(), role="compute")
             for i in range(4)]
    hdfs = HDFS(env, cluster.network, block_size=200, replication=1)
    for node in nodes:
        hdfs.add_datanode(node)
    return env, cluster, hdfs, nodes


def run_wordcount(**conf):
    env, cluster, hdfs, nodes = fresh_world()
    hdfs.store_file_sync("/in/text.txt", TEXT)
    settings = dict(
        name="twin", mapper=wc_map, reducer=wc_reduce,
        input_format=TextInputFormat(), n_reducers=3,
        input_paths=["/in"], map_slots_per_node=2,
        task_startup=0.01, output_path="/out")
    settings.update(conf)
    runner = JobRunner(env, nodes, hdfs, cluster.network,
                       JobConf(**settings))
    return run(env, runner.run())


@pytest.mark.parametrize("conf", [
    {},                                    # plain wordcount
    {"combiner": wc_reduce},               # map-side combiner (shared code)
    {"n_reducers": 1},                     # single fat partition
])
def test_default_knobs_pin_legacy_reduce_timings(request, conf):
    new = run_wordcount(**conf)
    old = GOLDEN[request.node.name]

    # Job end-to-end timing pinned to 1e-9.
    assert new.duration == pytest.approx(old["duration"], abs=1e-9)
    assert new.end == pytest.approx(old["end"], abs=1e-9)

    # Per-reduce-task start/end pinned to 1e-9, pairwise.
    new_r = sorted(new.stats_for("reduce"), key=lambda s: s.task_id)
    assert len(new_r) == len(old["reduces"]) > 0
    for stats, (start, end) in zip(new_r, old["reduces"]):
        assert stats.start == pytest.approx(start, abs=1e-9)
        assert stats.end == pytest.approx(end, abs=1e-9)

    # Identical byte streams: same partition assignment, same merged
    # record order, same persisted outputs.
    assert digest(new.outputs) == old["outputs_crc"]
    assert new.output_paths == old["output_paths"]
    assert new.counters.value("shuffle", "bytes") == old["shuffle_bytes"]
    assert new.counters.value("reduce", "groups") == old["reduce_groups"]
