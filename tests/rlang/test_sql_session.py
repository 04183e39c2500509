"""SQLSession over scinc files on the simulated PFS: pinned timings,
pushdown soundness, zone-map pruning, and the scan accounting.

The world comes from :func:`repro.bench.sqlbench.build_sql_world` (the
same harness CI benches), shrunk to a fast shape. The invariants:

- pushdown on and off return identical frames, and the frames are what
  numpy computes from the synthesized data;
- the pushdown-off session's simulated seconds equal, at 1e-9, what
  the retired eager evaluator's session took over the same reads
  (recorded in ``tests/golden/rlang.json``), and pushdown is faster;
- pushdown never skips a chunk that contains a predicate match
  (soundness, recomputed from the synthesized data);
- pruning is visible: fewer PFS bytes, ``io.read.pfs.skipped_*`` and
  ``sql.*`` counters move.
"""

import numpy as np
import pytest

from repro import costs
from repro.bench.sqlbench import build_sql_world, selective_threshold
from repro.obs.metrics import metrics_of
from repro.rlang import SQLError, SQLSession, data_frame
from repro.workloads.nuwrf import NUWRFConfig, synthesize_timestep

from tests.golden import load_golden

SHAPE = (4, 16, 16)

GOLDEN = load_golden("rlang")


@pytest.fixture(autouse=True)
def _reset_scale():
    yield
    costs.reset_scale()


def small_config(stats=True):
    return NUWRFConfig(shape=SHAPE, timesteps=1, chunk_stats=stats)


def run_session(pushdown, config, queries, frames=()):
    env, nodes, scidp, manifest = build_sql_world(config)
    session = SQLSession(env, scidp.storage, nodes[0], pushdown=pushdown)
    for i, path in enumerate(manifest["files"]):
        session.register_scinc(f"t{i}", f"pfs://{path.lstrip('/')}")
    for name, frame in frames:
        session.register_frame(name, frame)
    results, scans = [], []
    t0 = env.now
    for sql in queries:
        proc = env.process(session.query(sql))
        env.run()
        results.append(proc.value)
        scans.extend(session.last_scan_info)
    return {"env": env, "session": session, "results": results,
            "scans": scans, "seconds": env.now - t0}


def selective_query(config):
    thr = selective_threshold(config)
    return (f"SELECT altitude, longitude, latitude, QR FROM t0 "
            f"WHERE QR > {thr:.9f}"), thr


def assert_selective_rows(out, config, thr):
    """``selective_query``'s frame, recomputed by numpy."""
    qr = synthesize_timestep(config, 0).variables["QR"].data
    mask = qr > thr
    z, y, x = np.nonzero(mask)  # C order == flatnonzero order
    np.testing.assert_array_equal(out["altitude"], z)
    np.testing.assert_array_equal(out["longitude"], y)
    np.testing.assert_array_equal(out["latitude"], x)
    np.testing.assert_array_equal(out["QR"], qr[mask])


def test_engines_identical_and_timing_twin():
    config = small_config()
    sql, thr = selective_query(config)
    queries = [sql,
               "SELECT altitude, AVG(QC) AS m FROM t0 "
               "GROUP BY altitude ORDER BY altitude"]
    plain = run_session(False, config, queries)
    pushed = run_session(True, config, queries)
    for a, b in zip(pushed["results"], plain["results"]):
        assert a == b
    assert_selective_rows(pushed["results"][0], config, thr)
    qc = synthesize_timestep(config, 0).variables["QC"].data
    profile = pushed["results"][1]
    assert profile["altitude"].tolist() == list(range(SHAPE[0]))
    np.testing.assert_allclose(
        profile["m"], qc.reshape(SHAPE[0], -1).mean(axis=1), rtol=1e-6)
    # the recorded pin: same reads, same order, same charges as the
    # retired eager session
    assert abs(plain["seconds"]
               - GOLDEN["session_pushdown_off_seconds"]) < 1e-9
    # and pruning actually buys simulated time
    assert pushed["seconds"] < plain["seconds"]


def test_result_matches_brute_force():
    config = small_config()
    sql, thr = selective_query(config)
    out = run_session(True, config, [sql])["results"][0]
    assert_selective_rows(out, config, thr)


def test_count_star_survives_projection_pushdown():
    """A query referencing no columns must keep the table's row count:
    projection pushdown may not prune every scinc variable (regression —
    a zero-column frame has nrow == 0)."""
    config = small_config()
    queries = ["SELECT COUNT(*) AS n FROM t0"]
    plain = run_session(False, config, queries)
    pushed = run_session(True, config, queries)
    assert pushed["results"][0] == plain["results"][0]
    n = int(np.prod(SHAPE))
    assert list(pushed["results"][0]["n"]) == [n]


def test_pushdown_never_skips_a_matching_chunk():
    """Soundness: every zone-map-skipped chunk is recomputed from the
    raw data and must contain no predicate match."""
    config = small_config()
    sql, thr = selective_query(config)
    run = run_session(True, config, [sql])
    session = run["session"]
    url = session.tables["t0"].url
    header, _size = session._headers[url]
    skipped_offsets = {
        off for info in run["scans"] for plan in info.plans
        for (off, _n) in plan.skipped}
    assert skipped_offsets, "expected some chunk to be pruned"
    qr = synthesize_timestep(config, 0).variables["QR"].data
    var = header.variable("/QR")
    for rec in var.chunks:
        abs_off = header.data_start + rec.offset
        if abs_off in skipped_offsets:
            chunk = qr[var.chunk_slices(rec.index)]
            assert not (chunk > thr).any(), \
                f"pruned chunk {rec.index} contains matches"


def test_pushdown_prunes_bytes_variables_and_counters():
    config = small_config()
    sql, _thr = selective_query(config)
    plain = run_session(False, config, [sql])
    pushed = run_session(True, config, [sql])
    full_bytes = sum(i.bytes_read for i in plain["scans"])
    p_bytes = sum(i.bytes_read for i in pushed["scans"])
    assert p_bytes < full_bytes
    info = pushed["scans"][0]
    # only QR is a variable column (the rest are dims): 22 of the 23
    # NU-WRF variables never produce a read
    assert info.variables_pruned == 22
    assert info.chunks_pruned > 0 and info.bytes_skipped > 0
    registry = metrics_of(pushed["env"])
    assert registry.counter("sql.queries").value == 1
    assert registry.counter("sql.bytes_skipped").value == \
        info.bytes_skipped
    assert registry.counter("sql.bytes_scanned").value == info.bytes_read
    assert registry.counter("sql.chunks_pruned").value == \
        info.chunks_pruned
    assert registry.counter(
        "io.read.pfs.skipped_bytes").value >= info.bytes_skipped
    assert registry.counter("io.read.pfs.skipped_chunks").value > 0
    # the pushdown-off path skipped nothing
    plain_registry = metrics_of(plain["env"])
    assert plain_registry.counter("sql.bytes_skipped").value == 0


def test_no_zone_maps_still_correct_and_unpruned():
    """Files written without stats: projection pushdown still works,
    zone-map pruning degrades to reading every chunk — never to a wrong
    answer."""
    config = small_config(stats=False)
    sql, thr = selective_query(config)
    pushed = run_session(True, config, [sql])
    assert_selective_rows(pushed["results"][0], config, thr)
    info = pushed["scans"][0]
    assert info.chunks_pruned == 0          # nothing provable
    assert info.variables_pruned == 22      # projection still prunes


def test_dimension_predicate_prunes_exactly_without_stats():
    """Dimension columns prune from chunk-grid coordinates alone — no
    zone maps needed (one z-level per chunk in the NU-WRF layout)."""
    config = small_config(stats=False)
    run = run_session(
        True, config,
        ["SELECT altitude, QV FROM t0 WHERE altitude = 2"])
    out = run["results"][0]
    assert set(out["altitude"]) == {2}
    assert out.nrow == SHAPE[1] * SHAPE[2]
    info = run["scans"][0]
    # QV has 4 z-chunks; only the altitude=2 slab survives
    assert info.chunks_read == 1
    assert info.chunks_pruned == SHAPE[0] - 1


def test_scinc_join_with_registered_frame():
    config = small_config()
    labels = data_frame(altitude=[0, 1, 2, 3],
                        band=["low", "low", "mid", "top"])
    queries = ["SELECT band, AVG(T) AS t_mean FROM t0 "
               "JOIN bands USING (altitude) GROUP BY band ORDER BY band"]
    plain = run_session(False, config, queries,
                        frames=[("bands", labels)])
    pushed = run_session(True, config, queries,
                         frames=[("bands", labels)])
    assert pushed["results"][0] == plain["results"][0]
    assert pushed["results"][0]["band"].tolist() == ["low", "mid", "top"]
    t = synthesize_timestep(config, 0).variables["T"].data
    np.testing.assert_allclose(
        pushed["results"][0]["t_mean"],
        [t[:2].mean(), t[2].mean(), t[3].mean()], rtol=1e-6)


def test_unknown_table_lists_frames_and_tables():
    config = small_config()
    env, nodes, scidp, manifest = build_sql_world(config)
    session = SQLSession(env, scidp.storage, nodes[0])
    session.register_scinc("t0", f"pfs://{manifest['files'][0].lstrip('/')}")
    session.register_frame("f", data_frame(x=[1]))
    proc = env.process(session.query("SELECT x FROM ghost"))
    with pytest.raises(SQLError) as exc:
        env.run()
    assert "ghost" in str(exc.value)
    assert "t0" in str(exc.value) and "f" in str(exc.value)
