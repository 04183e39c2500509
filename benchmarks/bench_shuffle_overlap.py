"""Overlapped shuffle data path — the BENCH_shuffle trajectory.

Four configurations of the Fig. 9-style SQL aggregation job isolate the
three shuffle mechanisms: the event-driven copy phase (reducers launch
at the first committed map output instead of the map barrier), the
map-side combiner (folds (count, sum) partial aggregates before they
cross the network), and the bounded merge (``shuffle_merge_factor`` caps
the merge width at the cost of extra spill passes).

The winning numbers are persisted to ``bench_results/BENCH_shuffle.json``
so the perf trajectory is comparable across commits; CI uploads the same
document produced by ``python -m repro.bench shuffle --json``.
"""

import json
import pathlib
import random
import time

from repro.bench.harness import shuffle_overlap_rows
from repro.mapreduce.shuffle import hash_partition, hash_partition_many

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / \
    "bench_results"


def test_shuffle_overlap_trajectory(benchmark, record_table):
    columns, rows, note = benchmark.pedantic(
        shuffle_overlap_rows, rounds=1, iterations=1,
        kwargs={"n_timesteps": 12})
    record_table("shuffle_overlap", columns, rows, note)

    by_label = {row[0]: row for row in rows}
    legacy = by_label["legacy barrier"]
    overlap = by_label["overlapped copy"]
    combined = by_label["overlap + combiner"]
    bounded = by_label["overlap + combiner + merge x4"]

    # The event-driven copy phase alone beats the map barrier.
    assert overlap[1] < legacy[1]
    # The combiner stacks on top: faster still, and the shuffle volume
    # collapses by the fold factor.
    assert combined[1] < overlap[1] < legacy[1]
    assert combined[3] < legacy[3] / 4
    # The bounded merge pays spill passes for its capped merge width.
    assert bounded[5] > 0
    assert bounded[3] == combined[3]

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_shuffle.json").write_text(json.dumps({
        "experiment": "shuffle",
        "columns": list(columns),
        "rows": [list(row) for row in rows],
        "note": note,
    }, indent=2) + "\n")


def test_hash_partition_vectorized_fold(benchmark):
    """The batch call folds a whole run of short keys in one matrix
    product and agrees with the per-key fold (both are held to the
    scalar reference by ``tests/mapreduce/test_legacy_equivalence.py``)."""
    rng = random.Random(20260806)
    keys = [
        bytes(rng.randrange(256)
              for _ in range(rng.randrange(64, 4096)))
        for _ in range(400)
    ]
    # terasort-shaped run: what one map task hands the partitioner
    short_keys = [bytes(rng.randrange(65, 91) for _ in range(10))
                  for _ in range(8000)]
    for run in (keys, short_keys):
        assert hash_partition_many(run, 1 << 20) == \
            [hash_partition(k, 1 << 20) for k in run]

    benchmark.pedantic(
        lambda: [hash_partition(k, 1 << 20) for k in keys],
        rounds=3, iterations=1)

    def ms(fn):
        t0 = time.perf_counter()
        fn()
        return (time.perf_counter() - t0) * 1e3

    for label, run in (("long", keys), ("10-byte", short_keys)):
        per_key_ms = ms(lambda: [hash_partition(k, 1 << 20) for k in run])
        batch_ms = ms(lambda: hash_partition_many(run, 1 << 20))
        print(f"\n{len(run)} {label} keys: per-key {per_key_ms:.1f} ms, "
              f"batch {batch_ms:.1f} ms")
