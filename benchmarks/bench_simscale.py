"""Simulator engine throughput at cluster scale — the BENCH_simscale
trajectory.

Runs the 256-node / 10k-task / 10-job synthetic cluster workload (slot
gates, three-phase tasks, a run-wide speculative-backup reap), checks
that the engine popped events in the recorded order
(``tests/golden/sim.json``: order signature, final clock, event count),
and gates events/second against an absolute floor. The run goes through
the campaign engine (``workers=0``: in-process, so the timed event loop
shares nothing with a pool). CI uploads
``bench_results/BENCH_simscale.json`` next to BENCH_shuffle/BENCH_write.
"""

from benchmarks._worlds import run_campaign_doc, write_bench_json
from repro.bench.simscale import doc_rows
from tests.golden import load_golden

#: absolute floor for the engine — conservative (shared CI runners are
#: ~2-3x slower than a quiet dev box measuring ~550k events/s)
MIN_EVENTS_PER_SEC = 120_000.0

#: keys of the recorded run: the sizes, and what the order pins
PINNED = ("n_nodes", "n_tasks", "n_jobs", "seed", "signature",
          "sim_seconds", "events", "tasks_completed")


def _run_simscale():
    doc, _report, _ws = run_campaign_doc("simscale", workers=0)
    return doc


def test_simscale_trajectory(benchmark, record_table):
    doc = benchmark.pedantic(_run_simscale, rounds=1, iterations=1)

    # a throughput number only counts for the recorded event order
    golden = load_golden("sim")["simscale"]["full"]
    assert {key: doc[key] for key in PINNED} == golden

    assert doc["events_per_sec"] >= MIN_EVENTS_PER_SEC, \
        f"engine below the events/sec floor: {doc['events_per_sec']:,.0f}"

    columns, rows, note = doc_rows(doc)
    record_table("simscale", columns, rows, note)
    write_bench_json("simscale", "simscale", columns, rows, note, doc)
