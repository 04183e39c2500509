"""Fig. 7 — per-task time decomposition (Read / Convert / Plot).

Paper (384 timestamps): Convert dominates for Naive / Vanilla /
PortHadoop because ``read.table`` sequentially parses text; SciDP reads a
level in 0.035 s and converts binary data "in a very short time"; Plot is
essentially equal across the parallel solutions, slightly lower for the
contention-free naive run.

Phase durations are aggregated from the per-task spans that
``TaskContext.phase`` records (``repro.obs``).
"""

from repro.bench.harness import fig7_rows


def test_fig7_task_decomposition(benchmark, record_table):
    columns, rows, note = benchmark.pedantic(
        fig7_rows, rounds=1, iterations=1, kwargs={"n_timesteps": 48})
    record_table("fig7_task_decomposition", columns, rows, note)

    phases = {row[0]: {"read": row[1], "convert": row[2], "plot": row[3],
                       "shuffle": row[4]}
              for row in rows}

    # Every Hadoop-path solution waits on the shuffle; naive has no
    # reduce side at all.
    assert phases["naive"]["shuffle"] == 0.0
    for name in ("vanilla", "porthadoop", "scidp"):
        assert phases[name]["shuffle"] > 0.0

    # Convert dominates every read.table solution.
    for name in ("naive", "vanilla", "porthadoop"):
        assert phases[name]["convert"] > phases[name]["read"]
        assert phases[name]["convert"] > phases[name]["plot"]
        assert phases[name]["convert"] > 10 * phases["scidp"]["convert"]

    # SciDP: ~0.035 s/level read, negligible convert.
    assert 0.01 < phases["scidp"]["read"] < 0.1
    assert phases["scidp"]["convert"] < 0.02

    # Plot: equal across parallel solutions, naive slightly lower.
    parallel_plots = [phases[n]["plot"]
                      for n in ("vanilla", "porthadoop", "scidp")]
    assert max(parallel_plots) / min(parallel_plots) < 1.2
    assert phases["naive"]["plot"] < min(parallel_plots)
