"""Data-path pipelining benches.

Two claims from the pipelined data path land here:

- on the Fig. 5 workload in a slot-saturated configuration, the map
  phase gets shorter with (a) map-side block prefetch + read-ahead
  cache on the whole-block path and (b) the bounded in-flight request
  window on granularity-chopped reads;
- the host cost of the virtual-time :class:`~repro.sim.SharedBandwidth`
  on a contended 2000-transfer schedule (wall-clock recorded; its
  simulated completions are held to the naive rescan oracle by
  ``tests/sim/test_shared_bandwidth_equivalence.py``).
"""

import random

from repro.bench.harness import datapath_rows
from repro.sim import Environment, SharedBandwidth


def test_datapath_pipeline(benchmark, record_table):
    columns, rows, note = benchmark.pedantic(
        datapath_rows, rounds=1, iterations=1,
        kwargs={"n_timesteps": 24, "slots_per_node": 2})
    record_table("datapath_pipeline", columns, rows, note)
    serial, prefetched, chopped, windowed = rows
    assert prefetched[2] < serial[2]   # prefetch shortens the map phase
    assert prefetched[1] <= serial[1]  # and never the total's expense
    assert prefetched[5] > 0           # the cache was actually filled
    assert windowed[2] < chopped[2]    # window beats serial chopped reads
    assert windowed[1] < chopped[1]


def _run_schedule(n_transfers: int, seed: int = 20180710):
    """Drive one randomized transfer schedule; return completion times."""
    env = Environment()
    pipe = SharedBandwidth(env, 1e9, "pipe")
    rng = random.Random(seed)
    completions = []

    def one(delay, nbytes, idx):
        yield env.timeout(delay)
        yield pipe.transfer(nbytes)
        completions.append((idx, env.now))

    for i in range(n_transfers):
        env.process(one(rng.random() * 0.05,
                        rng.randrange(1, 10_000_000), i))
    env.run()
    return completions


def test_shared_bandwidth_microbench(benchmark, record_table):
    n = 2000
    completions = benchmark.pedantic(
        lambda: _run_schedule(n), rounds=1, iterations=1)
    assert len(completions) == n

    record_table(
        "sharedbw_microbench", ["implementation", "wall (s)", "transfers"],
        [("virtual-time finish tags", benchmark.stats.stats.mean, n)],
        note="wall-clock is machine-dependent")
