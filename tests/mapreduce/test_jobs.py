"""End-to-end MapReduce job tests (wordcount, map-only, boundaries)."""

import pickle

import pytest

from repro.mapreduce import (
    BytesInputFormat,
    JobConf,
    JobRunner,
    MapReduceError,
    TextInputFormat,
)

from tests.mapreduce.conftest import run


def wordcount_mapper(ctx, _offset, line):
    for word in line.split():
        ctx.emit(word, 1)
    ctx.charge(1e-6 * len(line))


def sum_reducer(ctx, key, values):
    ctx.emit(key, sum(values))
    ctx.charge(1e-7 * len(values))


TEXT = b"the quick brown fox\njumps over the lazy dog\n" \
       b"the dog barks\nfox and dog\n" * 20


def make_job(**kw):
    defaults = dict(
        name="wc",
        mapper=wordcount_mapper,
        reducer=sum_reducer,
        combiner=sum_reducer,
        input_format=TextInputFormat(),
        n_reducers=3,
        input_paths=["/in"],
        map_slots_per_node=2,
        task_startup=0.01,
    )
    defaults.update(kw)
    return JobConf(**defaults)


def expected_counts(text=TEXT):
    counts = {}
    for word in text.split():
        counts[word] = counts.get(word, 0) + 1
    return counts


def test_wordcount_end_to_end(world):
    env, cluster, hdfs, nodes = world
    hdfs.store_file_sync("/in/text.txt", TEXT)
    job = make_job()
    runner = JobRunner(env, nodes, hdfs, cluster.network, job)
    result = run(env, runner.run())

    got = {}
    for records in result.outputs.values():
        for key, value in records:
            assert key not in got  # each key in exactly one partition
            got[key] = value
    assert got == expected_counts()
    assert result.duration > 0
    assert result.counters.value("job", "splits") >= 1


def test_wordcount_multiple_files(world):
    env, cluster, hdfs, nodes = world
    hdfs.store_file_sync("/in/a.txt", b"alpha beta\n" * 10)
    hdfs.store_file_sync("/in/b.txt", b"beta gamma\n" * 10)
    job = make_job()
    runner = JobRunner(env, nodes, hdfs, cluster.network, job)
    result = run(env, runner.run())
    got = {k: v for recs in result.outputs.values() for k, v in recs}
    assert got == {b"alpha": 10, b"beta": 20, b"gamma": 10}


def test_records_survive_block_boundaries(world):
    """Lines deliberately straddle the 200-byte block boundary."""
    env, cluster, hdfs, nodes = world
    # 70-byte lines -> boundaries at 200/400/... never on a newline.
    line = b"x" * 64 + b" tail\n"
    assert len(line) == 70
    hdfs.store_file_sync("/in/straddle.txt", line * 30)
    job = make_job()
    runner = JobRunner(env, nodes, hdfs, cluster.network, job)
    result = run(env, runner.run())
    got = {k: v for recs in result.outputs.values() for k, v in recs}
    assert got == {b"x" * 64: 30, b"tail": 30}


def test_map_only_job_returns_map_records(world):
    env, cluster, hdfs, nodes = world
    hdfs.store_file_sync("/in/a.txt", b"one\ntwo\nthree\n")

    def identity_mapper(ctx, offset, line):
        ctx.emit(line, offset)

    job = make_job(mapper=identity_mapper, reducer=None, combiner=None,
                   n_reducers=0)
    runner = JobRunner(env, nodes, hdfs, cluster.network, job)
    result = run(env, runner.run())
    assert sorted(k for k, _v in result.map_records) == [
        b"one", b"three", b"two"]
    assert result.outputs == {}


def test_output_written_to_storage(world):
    env, cluster, hdfs, nodes = world
    hdfs.store_file_sync("/in/a.txt", b"a b a\n")
    job = make_job(output_path="/out", n_reducers=2)
    runner = JobRunner(env, nodes, hdfs, cluster.network, job)
    result = run(env, runner.run())
    assert len(result.output_paths) == 2
    persisted = {}
    for path in result.output_paths:
        for key, value in pickle.loads(hdfs.read_file_sync(path)):
            persisted[key] = value
    assert persisted == {b"a": 2, b"b": 1}


def test_locality_preferred(world):
    env, cluster, hdfs, nodes = world
    hdfs.store_file_sync("/in/a.txt", TEXT)
    job = make_job()
    runner = JobRunner(env, nodes, hdfs, cluster.network, job)
    result = run(env, runner.run())
    # With 4 balanced datanodes, block replicas exist on every node and
    # pullers prefer local splits: no remote map reads should happen.
    locations = {
        b.locations[0]
        for b in hdfs.namenode.get_block_locations("/in/a.txt")}
    map_nodes = {s.node for s in result.stats_for("map")}
    assert map_nodes <= {n.name for n in nodes}
    assert locations  # sanity


def test_combiner_reduces_shuffle_volume(world):
    env, cluster, hdfs, nodes = world
    hdfs.store_file_sync("/in/a.txt", TEXT)

    def run_job(combiner):
        env2, cluster2, hdfs2, nodes2 = world  # same world, fresh job
        job = make_job(combiner=combiner, name="wc2" if combiner else "wc3")
        runner = JobRunner(env, nodes, hdfs, cluster.network, job)
        return run(env, runner.run())

    with_combiner = run_job(sum_reducer)
    without_combiner = run_job(None)
    assert (with_combiner.counters.value("shuffle", "bytes")
            < without_combiner.counters.value("shuffle", "bytes"))
    got_a = {k: v for r in with_combiner.outputs.values() for k, v in r}
    got_b = {k: v for r in without_combiner.outputs.values() for k, v in r}
    assert got_a == got_b == expected_counts()


def test_more_nodes_run_faster(world):
    env, cluster, hdfs, nodes = world
    hdfs.store_file_sync("/in/big.txt", TEXT * 40)

    def elapsed(node_subset, name):
        job = make_job(name=name)
        job.params["x"] = name
        runner = JobRunner(env, node_subset, hdfs, cluster.network, job)
        t0 = env.now
        run(env, runner.run())
        return env.now - t0

    t_all = elapsed(nodes, "fast")
    t_one = elapsed(nodes[:1], "slow")
    assert t_all < t_one


def test_phase_means_exposes_read_phase(world):
    env, cluster, hdfs, nodes = world
    hdfs.store_file_sync("/in/a.txt", TEXT)
    job = make_job()
    runner = JobRunner(env, nodes, hdfs, cluster.network, job)
    result = run(env, runner.run())
    means = result.phase_means("map")
    assert means.get("read", 0) > 0
    assert means.get("compute", 0) > 0


def test_job_validation_errors():
    with pytest.raises(MapReduceError):
        JobConf(name="bad", mapper=None,
                input_format=TextInputFormat(),
                input_paths=["/x"]).validate()
    with pytest.raises(MapReduceError):
        JobConf(name="bad", mapper=lambda *a: None,
                input_format=None, input_paths=["/x"]).validate()
    with pytest.raises(MapReduceError):
        JobConf(name="bad", mapper=lambda *a: None,
                input_format=TextInputFormat(),
                input_paths=[]).validate()
    with pytest.raises(MapReduceError):
        JobConf(name="bad", mapper=lambda *a: None,
                reducer=lambda *a: None, n_reducers=0,
                input_format=TextInputFormat(),
                input_paths=["/x"]).validate()


@pytest.mark.parametrize("side, text", [
    ("map sort", b"both keys from one map\n"),
    # block size is 200 B: one line per split, so one key per map and
    # every map-side sort succeeds on its own
    ("reduce merge", b"x" * 199 + b"\n" + b"second split\n"),
])
def test_unorderable_keys_fail_the_job_in_one_line(world, side, text):
    """Keys of one type that Python cannot order — (1, "a") beside
    ("a", 1) — end the job with a one-line MapReduceError naming the
    job, the task and the two types, not a traceback out of the DES."""
    env, cluster, hdfs, nodes = world
    hdfs.store_file_sync("/in/keys.txt", text)

    def clashing_mapper(ctx, offset, _line):
        if side == "map sort" or offset == 0:
            ctx.emit((1, "a"), 0)
        if side == "map sort" or offset > 0:
            ctx.emit(("a", 1), 0)

    job = make_job(name="clash", mapper=clashing_mapper, combiner=None,
                   n_reducers=1, max_task_attempts=2,
                   task_retry_backoff=0.01)
    runner = JobRunner(env, nodes, hdfs, cluster.network, job)
    with pytest.raises(MapReduceError) as caught:
        run(env, runner.run())
    message = str(caught.value)
    assert "\n" not in message
    assert "job 'clash' task " in message
    assert "'int'" in message and "'str'" in message
    kind = "map task" if side == "map sort" else "reduce partition 0"
    assert message.startswith(kind) and "failed 2 times" in message


def test_bytes_input_format_whole_blocks(world):
    env, cluster, hdfs, nodes = world
    data = bytes(range(256)) * 3  # 768 bytes -> 4 blocks of <=200
    hdfs.store_file_sync("/in/raw.bin", data)

    def block_mapper(ctx, key, value):
        ctx.emit(key, len(value))

    job = make_job(mapper=block_mapper, reducer=None, combiner=None,
                   n_reducers=0, input_format=BytesInputFormat())
    runner = JobRunner(env, nodes, hdfs, cluster.network, job)
    result = run(env, runner.run())
    sizes = sorted(v for _k, v in result.map_records)
    assert sizes == [168, 200, 200, 200]


def test_empty_input_dir_raises(world):
    env, cluster, hdfs, nodes = world
    hdfs.store_file_sync("/elsewhere/a.txt", b"x\n")
    job = make_job(input_paths=["/in"])
    runner = JobRunner(env, nodes, hdfs, cluster.network, job)

    def proc():
        yield from runner.run()

    with pytest.raises(Exception):
        run(env, proc())
