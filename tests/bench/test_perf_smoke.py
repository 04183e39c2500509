"""Perf smoke: the figure benches must not drift.

Golden numbers were captured from the pre-pipelining data path. With
the pipelining knobs at their defaults the fig benches take the exact
old code paths (single-request blocks, no prefetch, no cache, AllOf
fan-out), so these are equality checks up to float tolerance — any
drift means the rework changed simulated physics, which is a bug.

The datapath assertions are the flip side: with the knobs *on*, the
pipeline must actually be faster than the serial path.
"""

import pytest

from repro import costs
from repro.bench.harness import (
    datapath_rows,
    fig2_rows,
    fig5_table3_rows,
    shuffle_overlap_rows,
    write_path_rows,
)

#: fig5 totals at sizes=(3,), captured before the pipelined data path
GOLDEN_FIG5 = {
    "naive": 83.08206649538458,
    "vanilla": 5.496688062134538,
    "porthadoop": 3.873715299853103,
    "scihadoop": 3.7875080786851356,
    "scidp": 0.4557778334075806,
}
GOLDEN_FIG5_SPEEDUPS = {
    "scidp vs naive": 182.28632549816922,
    "scidp vs vanilla": 12.060016216758637,
    "scidp vs porthadoop": 8.499130532285063,
    "scidp vs scihadoop": 8.309987456757568,
}

#: fig2 quick (n_records=2000, n_lines=2000, dfsio_files=2,
#: dfsio_bytes=256 KiB): (hdfs s, connector s, ratio)
GOLDEN_FIG2 = {
    "terasort": (0.25000851905816, 0.4820987875158419,
                 1.9283294398607682),
    "grep": (0.1658780279171006, 0.23560200004893594,
             1.4203327770853453),
    "dfsio-write": (0.3428938113958331, 0.9702444723246506,
                    2.829577087947529),
    "dfsio-read": (0.34229381139583426, 0.9350183105468615,
                   2.73162493570645),
}
GOLDEN_FIG2_GEOMEAN = 2.145005869724353

#: shuffle ablation, quick size (n_timesteps=4). The legacy-barrier
#: timing is the bit-exactness pin for the default knob path; the
#: volumes/counter strings are exact for every configuration.
GOLDEN_SHUFFLE_LEGACY_TOTAL = 0.8014997687187184
GOLDEN_SHUFFLE_MB = 0.421875
GOLDEN_SHUFFLE_COMBINED_MB = 0.052734375
GOLDEN_SHUFFLE_COMBINE = "9216/1152"

#: write bench, quick size (n_files=2, blocks_per_file=2): {label:
#: seconds}. The two "legacy" rows are the bit-exactness pins for the
#: default-knob write path (they drive the store-and-forward /
#: unbounded-stripe-push event sequences); the rest pin the pipelined
#: disciplines' determinism.
GOLDEN_WRITE = {
    ("legacy store-and-forward", "hdfs://"): 7.034744019759548,
    ("packet pipeline", "hdfs://"): 2.2343153050928817,
    ("packet + parallel blocks", "hdfs://"): 2.210058764648437,
    ("packet + parallel + write-behind", "hdfs://"): 2.2014587646484376,
    ("legacy stripe pushes", "pfs://"): 7.327828367708432,
    ("windowed stripe pushes", "pfs://"): 7.327828367708432,
    ("windowed + write-behind", "pfs://"): 3.814728367708541,
}

#: sql / sparklike benches, quick size: simulated seconds per config.
#: The baseline rows (``planner``, ``lazy``) carry the numbers the
#: retired eager-twin rows did — recorded from the frozen engine twins
#: at commit 8ce2ee3, where CI held the two equal to 1e-9.
GOLDEN_SQL_QUICK = {
    "planner": 0.061493869999999985,
    "planner+pushdown": 0.008979540625,
}
GOLDEN_SPARKLIKE_QUICK = {
    "lazy": 0.16444920000000002,
    "lazy+fusion": 0.12394920000000001,
    "lazy+cache": 0.09502920000000002,
    "lazy+fusion+cache": 0.09052920000000002,
}

REL = 1e-9


@pytest.fixture(autouse=True)
def _reset_scale():
    yield
    costs.reset_scale()


def test_fig5_reproduces_golden_totals():
    _columns, rows, _note = fig5_table3_rows(sizes=(3,))
    got = {row[0]: row[1] for row in rows}
    for solution, golden in GOLDEN_FIG5.items():
        assert got[solution] == pytest.approx(golden, rel=REL), solution
    for label, golden in GOLDEN_FIG5_SPEEDUPS.items():
        assert got[label] == pytest.approx(golden, rel=REL), label


def test_fig2_reproduces_golden_quick_numbers():
    _columns, rows, _note = fig2_rows(
        n_records=2000, n_lines=2000, dfsio_files=2,
        dfsio_bytes=256 * 1024)
    got = {row[0]: row for row in rows}
    for workload, (hdfs_s, conn_s, ratio) in GOLDEN_FIG2.items():
        row = got[workload]
        assert row[1] == pytest.approx(hdfs_s, rel=REL), workload
        assert row[2] == pytest.approx(conn_s, rel=REL), workload
        assert row[3] == pytest.approx(ratio, rel=REL), workload
    assert got["geo-mean"][3] == pytest.approx(GOLDEN_FIG2_GEOMEAN,
                                               rel=REL)


def test_shuffle_overlap_goldens_and_ordering():
    _columns, rows, _note = shuffle_overlap_rows(n_timesteps=4)
    legacy, overlap, combined, bounded = rows
    # default knobs take the exact legacy code path — equality pin
    assert legacy[1] == pytest.approx(GOLDEN_SHUFFLE_LEGACY_TOTAL,
                                      rel=REL)
    assert legacy[3] == overlap[3] == GOLDEN_SHUFFLE_MB
    assert combined[3] == bounded[3] == GOLDEN_SHUFFLE_COMBINED_MB
    assert combined[4] == bounded[4] == GOLDEN_SHUFFLE_COMBINE
    # the perf trajectory itself: each mechanism must keep paying off
    assert overlap[1] < legacy[1]
    assert combined[1] < overlap[1]
    assert bounded[5] > 0


def test_write_path_goldens_and_ordering():
    _columns, rows, _note = write_path_rows(n_files=2, blocks_per_file=2)
    got = {(row[0], row[1]): row for row in rows}
    for key, golden in GOLDEN_WRITE.items():
        assert got[key][2] == pytest.approx(golden, rel=REL), key
    # the perf trajectory: the packet pipeline is the big win at
    # replication 3, parallel blocks and write-behind keep paying off
    assert got[("packet pipeline", "hdfs://")][3] >= 1.3  # the CI gate
    assert got[("packet + parallel blocks", "hdfs://")][2] \
        <= got[("packet pipeline", "hdfs://")][2]
    assert got[("packet + parallel + write-behind", "hdfs://")][2] \
        <= got[("packet + parallel blocks", "hdfs://")][2]
    assert got[("windowed + write-behind", "pfs://")][2] \
        < got[("legacy stripe pushes", "pfs://")][2]


def test_pipelined_datapath_beats_serial():
    _columns, rows, _note = datapath_rows(n_timesteps=8,
                                          slots_per_node=2)
    serial, prefetched, chopped, windowed = rows
    assert prefetched[2] < serial[2]   # prefetch shortens the map phase
    assert windowed[2] < chopped[2]    # window beats serial chopped reads
    assert windowed[1] < chopped[1]


def test_sql_and_sparklike_bench_baselines_reproduce_golden():
    from repro.bench.sparkbench import sparklike_result
    from repro.bench.sqlbench import sql_pushdown_result

    for doc, goldens in (
            (sql_pushdown_result(shape=(8, 32, 32), timesteps=1),
             GOLDEN_SQL_QUICK),
            (sparklike_result(n_lines=400, iterations=3),
             GOLDEN_SPARKLIKE_QUICK)):
        assert doc["identical_results"]
        got = {name: entry["sim_seconds"]
               for name, entry in doc["configs"].items()}
        assert got == pytest.approx(goldens, rel=REL)
