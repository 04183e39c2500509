"""SQL planner pushdown vs full-table scans — the BENCH_sql
trajectory.

Runs the Fig. 9-style selective-query comparison across two
configurations (planner with pushdown off — the baseline — and with
pushdown on) over zone-mapped NU-WRF scinc files on the simulated PFS.
The configurations sweep as campaign points (``workers=0``) and the
comparison document is folded from the workspace records. Gates:
identical result frames, and pushdown scans >= 10x fewer PFS bytes (the
baseline's simulated seconds are pinned by the tier-1 goldens). All
timings are simulated, so every ratio is deterministic on any runner.
CI uploads ``bench_results/BENCH_sql.json`` next to the other BENCH_*
artifacts.
"""

from repro.bench.sqlbench import BASELINE, MIN_BYTES_REDUCTION

from benchmarks._worlds import run_campaign_doc, write_bench_json


def _run_sql():
    doc, _report, _ws = run_campaign_doc("sql", workers=0)
    return doc


def test_sql_pushdown_trajectory(benchmark, record_table):
    doc = benchmark.pedantic(_run_sql, rounds=1, iterations=1)

    assert doc["identical_results"], \
        "engine configurations disagreed on the query results"
    # The baseline reads every chunk of every selected variable.
    assert doc["configs"][BASELINE]["chunks_pruned"] == 0

    assert doc["bytes_reduction"] >= MIN_BYTES_REDUCTION, \
        f"pushdown below the {MIN_BYTES_REDUCTION}x bytes gate: " \
        f"{doc['bytes_reduction']:.2f}x"
    # Pruning must also translate into simulated wall-clock.
    assert doc["speedup"] > 1.0

    columns = ["engine config", "sim seconds", "MB scanned",
               "chunks read", "chunks pruned", "vars pruned"]
    rows = [
        (name, round(entry["sim_seconds"], 5),
         round(entry["bytes_scanned"] / 1e6, 4),
         entry["chunks_read"], entry["chunks_pruned"],
         entry["variables_pruned"])
        for name, entry in doc["configs"].items()
    ]
    note = (f"Fig. 9-style selective QR scan, {doc['timesteps']} NU-WRF "
            f"timesteps of shape {tuple(doc['shape'])}; bytes reduction "
            f"{doc['bytes_reduction']:.1f}x (gate >= "
            f"{MIN_BYTES_REDUCTION:.0f}x) vs {BASELINE}; simulated "
            f"time, deterministic")
    record_table("sql", columns, rows, note)

    write_bench_json("sql", "sql", columns, rows, note, doc)
