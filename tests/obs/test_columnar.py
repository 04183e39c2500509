"""Columnar recording core: storage units and recorded-export equivalence.

The columnar recorders must be invisible in what they export: the
per-object recorder they replaced (one ``Span`` object per event, two
Python lists per monitor) drove the *same* workloads once, and the
digests of what it exported are in ``tests/golden/obs.json``. Exported
traces must match **byte for byte**; ``Monitor`` statistics are checked
to 1e-9 against plain-Python arithmetic written out below.
"""

import json
import math
import zlib

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.hdfs import HDFS
from repro.mapreduce import JobConf, JobRunner, TextInputFormat
from repro.obs.columnar import ColumnarLog, Table
from repro.obs.trace import TraceSession, attach_tracer, chrome_events
from repro.sim import Environment
from repro.sim.columns import FloatColumn
from repro.sim.stats import Monitor

from tests.golden import digest, load_golden
from tests.mapreduce.conftest import run, small_spec

GOLDEN = load_golden("obs")


# --------------------------------------------------------------------------
# Storage units
# --------------------------------------------------------------------------

def test_float_column_roundtrip_across_chunks():
    col = FloatColumn(chunk=8)
    values = [float(i) * 0.5 for i in range(29)]
    for v in values[:20]:
        col.append(v)
    col.extend(values[20:])
    assert len(col) == 29
    assert col.tolist() == values
    assert col.last() == values[-1]
    np.testing.assert_array_equal(col.array(), np.array(values))


def test_float_column_buffer_identity_survives_flush():
    """Hot paths cache ``buf``; flush must clear it in place."""
    col = FloatColumn(chunk=4)
    buf = col.buf
    for v in range(10):
        col.append(float(v))
    assert col.buf is buf
    buf.extend((10.0, 11.0))
    assert col.tolist() == [float(v) for v in range(12)]


def test_float_column_extend_array_is_one_chunk():
    col = FloatColumn(chunk=4)
    col.append(1.0)
    col.extend_array(np.arange(100, dtype=np.float64))
    assert len(col) == 101
    assert col.tolist() == [1.0] + [float(i) for i in range(100)]
    assert col.nbytes >= 101 * 8


def test_table_rows_and_ingest():
    table = Table(width=3, chunk_rows=4)
    table.append_row(1.0, 2.0, 3.0)
    table.ingest(np.array([4.0, 7.0]), np.array([5.0, 8.0]),
                 np.array([6.0, 9.0]))
    assert len(table) == 3
    np.testing.assert_array_equal(
        table.rows(), [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(ValueError):
        table.ingest(np.array([1.0]), np.array([1.0, 2.0]),
                     np.array([1.0]))


def test_columnar_log_interns_keys_once():
    log = ColumnarLog()
    a = log.key_id("read", "task.phase", "n0.s0")
    b = log.key_id("read", "task.phase", "n0.s0")
    c = log.key_id("read", "task.phase", "n0.s1")
    assert a == b != c
    assert log.key_list[a] == ("read", "task.phase", "n0.s0")
    assert log.tracks() == {"n0.s0", "n0.s1"}


# --------------------------------------------------------------------------
# Recorded-export equivalence
# --------------------------------------------------------------------------

def _drive(tracer, env):
    """One deterministic event mix through the tracer's public API."""
    def proc():
        with tracer.span("outer", cat="test", track="n0.s0", idx=1):
            yield env.timeout(2)
            with tracer.span("inner", cat="test.phase", track="n0.s0"):
                yield env.timeout(3)
        tracer.instant("marker", track="n0.s0", why="because")
        for i in range(100):
            tracer.counter("queue", float(i % 7))
            yield env.timeout(0.25)
        with tracer.span("tail", cat="test", track="n1.s0") as handle:
            handle.set(bytes=4096)
            yield env.timeout(1)

    env.process(proc())
    env.run()


def test_twin_tracers_export_identical_events():
    env = Environment()
    tracer = attach_tracer(env)
    _drive(tracer, env)
    want = GOLDEN["tracer"]

    # the per-object views agree exactly...
    spans = [(s.name, s.cat, s.track, s.start, s.end, s.args)
             for s in tracer.spans]
    assert len(spans) == want["n_spans"]
    assert digest(spans) == want["spans_crc"]
    assert len(tracer.instants) == want["n_instants"]
    assert digest(list(tracer.instants)) == want["instants_crc"]
    assert len(tracer.counter_samples) == want["n_counters"]
    assert digest(list(tracer.counter_samples)) == want["counters_crc"]
    # ...and the exported event stream is byte-identical
    events = chrome_events(tracer, pid=3, process_name="twin")
    assert zlib.crc32(json.dumps(events, sort_keys=True).encode()) \
        == want["chrome_events_crc"]


def _word_count_world():
    env = Environment()
    cluster = Cluster(env)
    nodes = [cluster.add_node(f"n{i}", small_spec(), role="compute")
             for i in range(4)]
    hdfs = HDFS(env, cluster.network, block_size=200, replication=1)
    for node in nodes:
        hdfs.add_datanode(node)
    return env, cluster, hdfs, nodes


def _mapper(ctx, _offset, line):
    ctx.emit(len(line.split()), 1)
    ctx.charge(1e-6 * len(line), phase="convert")


def _reducer(ctx, key, values):
    ctx.emit(key, sum(values))


def _run_traced_job(path):
    env, cluster, hdfs, nodes = _word_count_world()
    session = TraceSession(str(path))
    session.observe(env, "twin", nodes=nodes, hdfs=hdfs,
                    network=cluster.network)
    hdfs.store_file_sync("/in/text.txt", b"one two three\n" * 60)
    conf = JobConf(
        name="twin", mapper=_mapper, reducer=_reducer,
        input_format=TextInputFormat(), n_reducers=2,
        input_paths=["/in"], map_slots_per_node=2, task_startup=0.01)
    runner = JobRunner(env, nodes, hdfs, cluster.network, conf)
    result = run(env, runner.run())
    session.save()
    return result


@pytest.mark.parametrize("suffix", [".json", ".jsonl"])
def test_twin_worlds_export_byte_identical_traces(tmp_path, suffix):
    """A full traced mapreduce run writes, byte for byte, the trace file
    the per-object recorder wrote."""
    path = tmp_path / f"columnar{suffix}"
    result = _run_traced_job(path)
    want = GOLDEN["traced_job"][suffix]
    assert result.duration == want["duration"]  # recording moved no event
    blob = path.read_bytes()
    assert len(blob) == want["length"]
    assert zlib.crc32(blob) == want["crc32"]


def test_twin_monitors_agree_to_1e9():
    """Monitor (columnar, numpy reductions) agrees with plain-Python
    arithmetic over two lists on every derived statistic of an irregular
    sample stream."""
    env = Environment()
    mon = Monitor(env, "m")
    times, values = [], []

    def proc():
        for i in range(500):
            value = (i * 7919 % 1000) / 33.0
            times.append(env.now)
            values.append(value)
            mon.record(value)
            yield env.timeout(0.1 + (i % 13) * 0.01)

    env.process(proc())
    env.run()
    assert mon.times == times
    assert mon.values == values

    mean = sum(values) / len(values)
    stdev = math.sqrt(
        sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    # step function: each sample holds until the next one (or the end)
    weighted = span = 0.0
    for t, t_next, v in zip(times, times[1:] + [env.now], values):
        weighted += v * (t_next - t)
        span += t_next - t

    assert mon.mean == pytest.approx(mean, abs=1e-9)
    assert mon.minimum == min(values)
    assert mon.maximum == max(values)
    assert mon.stdev == pytest.approx(stdev, abs=1e-9)
    assert mon.time_average(env.now) == \
        pytest.approx(weighted / span, abs=1e-9)


# --------------------------------------------------------------------------
# In-flight spans at dump time
# --------------------------------------------------------------------------

def test_inflight_spans_export_closed_at_dump_clock():
    env = Environment()
    tracer = attach_tracer(env)

    def proc():
        handle = tracer.span("stuck", cat="test", track="n0.s0",
                             task_id="m7").__enter__()
        with tracer.span("done", cat="test", track="n1.s0"):
            yield env.timeout(2)
        yield env.timeout(3)
        del handle  # never exited: still open at dump time

    env.process(proc())
    env.run()

    (stuck,) = tracer.inflight_spans()
    assert (stuck.name, stuck.start, stuck.end) == ("stuck", 0.0, 5.0)
    assert stuck.args["inflight"] is True
    assert stuck.args["task_id"] == "m7"

    events = chrome_events(tracer, pid=1, process_name="p")
    spans = [e for e in events if e.get("ph") == "X"]
    by_name = {e["name"]: e for e in spans}
    assert by_name["stuck"]["dur"] == pytest.approx(5e6)
    assert by_name["stuck"]["args"]["inflight"] is True
    assert "inflight" not in by_name["done"].get("args", {})
    # closing the span afterwards removes it from the in-flight set
    ts = sorted(e["ts"] for e in spans)
    assert ts == sorted(ts)


def test_inflight_span_not_duplicated_after_close():
    env = Environment()
    tracer = attach_tracer(env)
    with tracer.span("s", track="t"):
        pass
    assert tracer.inflight_spans() == []
    events = chrome_events(tracer)
    assert len([e for e in events if e.get("ph") == "X"]) == 1
