"""Sparklike fusion and caching vs the default-knob engine — the
BENCH_sparklike trajectory.

Runs the iterative-wordcount comparison across four configurations
(lazy default, fusion, cache, fusion+cache) and gates fused+cached at
>= 1.5x over the default-knob baseline. The four configurations sweep
as campaign points (one per config, ``workers=0``)
and the comparison document is folded from the workspace records. All
timings are simulated seconds, so the ratio is deterministic on any
runner. CI uploads ``bench_results/BENCH_sparklike.json`` next to
BENCH_shuffle/BENCH_write/BENCH_simscale.
"""

from repro.bench.sparkbench import BASELINE, MIN_SPEEDUP

from benchmarks._worlds import run_campaign_doc, write_bench_json


def _run_sparklike():
    doc, _report, _ws = run_campaign_doc("sparklike", workers=0)
    return doc


def test_sparklike_trajectory(benchmark, record_table):
    doc = benchmark.pedantic(_run_sparklike, rounds=1, iterations=1)

    assert doc["identical_results"], \
        "engine configurations disagreed on the workload results"
    assert doc["speedup"] >= MIN_SPEEDUP, \
        f"fused+cached below the {MIN_SPEEDUP}x gate: " \
        f"{doc['speedup']:.2f}x"
    # Each lever also helps on its own.
    assert doc["configs"]["lazy+fusion"]["speedup"] > 1.0
    assert doc["configs"]["lazy+cache"]["speedup"] > 1.0

    columns = ["engine config", "sim seconds", "tasks", "cache hits",
               f"speedup vs {BASELINE}"]
    rows = [
        (name, round(entry["sim_seconds"], 4), entry["tasks"],
         entry["cache_hits"], round(entry["speedup"], 2))
        for name, entry in doc["configs"].items()
    ]
    note = (f"iterative wordcount, {doc['iterations']} rounds over "
            f"{doc['n_lines']} lines; simulated time, deterministic; "
            f"gate: fused+cached >= {MIN_SPEEDUP}x {BASELINE}")
    record_table("sparklike", columns, rows, note)

    write_bench_json("sparklike", "sparklike", columns, rows, note, doc)
