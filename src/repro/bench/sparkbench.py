"""Knob-vs-knob on the sparklike engine: fusion and caching against
the default-knob baseline on an iterative wordcount — the
BENCH_sparklike trajectory.

The workload is the iterative pattern the engine's knobs were built
for: a text corpus on HDFS feeds a three-operator narrow chain, and the
job re-aggregates it over several iterations (think: a fixpoint loop
over the same parsed input). The default-knob ``lazy`` baseline
re-reads and re-parses the corpus every iteration; ``fusion=True``
collapses the narrow chain into one per-partition pass, and with
``.cache()`` the parsed records are served from executor memory after
iteration one.

All timings are *simulated* seconds, so the comparison is deterministic
— CI gates fused+cached at >= 1.5x over the baseline without wall-clock
noise. Results land in ``bench_results/BENCH_sparklike.json`` next to
BENCH_shuffle/BENCH_write/BENCH_simscale.
"""

from __future__ import annotations

WORDS = ("alpha", "beta", "gamma", "delta", "epsilon",
         "zeta", "eta", "theta")

#: the ISSUE-8 trajectory gate
MIN_SPEEDUP = 1.5

#: engine configurations: name -> (context kwargs, cached) — plain data
#: so a campaign state point can name a config by string
CONFIGS = {
    "lazy": ({}, False),
    "lazy+fusion": ({"fusion": True}, False),
    "lazy+cache": ({}, True),
    "lazy+fusion+cache": ({"fusion": True}, True),
}
#: the default-knob row every speed-up is quoted against
BASELINE = "lazy"


def _build_world(n_nodes: int = 4, n_lines: int = 400):
    from repro.bench.worlds import build_hdfs_world

    env, nodes, hdfs, network = build_hdfs_world(n_nodes)
    lines = []
    for i in range(n_lines):
        lines.append(" ".join(
            WORDS[(i + j) % len(WORDS)] for j in range(4)))
    payload = ("\n".join(lines) + "\n").encode()
    hdfs.store_file_sync("/corpus/part0.txt", payload)
    return env, nodes, hdfs, network


def _run_iterative(ctx, iterations: int, cached: bool):
    """K rounds of aggregation over the parsed corpus, then one final
    wordcount. Returns ``(timed_simulated_seconds, final_counts)``.

    The timed loop is the iterative pattern: each round re-aggregates
    the same parsed input. An uncached run re-reads and re-parses the
    corpus from HDFS every round; a cached run parses once."""
    parsed = (ctx.text_file("/corpus")
              .map(lambda line: line.decode())
              .flat_map(lambda line: line.split())
              .map(lambda word: (word, 1)))
    if cached:
        parsed = parsed.cache()
    t0 = ctx.env.now
    total = 0
    for _round in range(iterations):
        total += parsed.count()
    seconds = ctx.env.now - t0
    # Untimed correctness check: every config must agree on the counts.
    counts = dict(parsed.reduce_by_key(lambda a, b: a + b).collect())
    counts["__total__"] = total
    return seconds, counts


def run_config(name: str, n_lines: int = 2000,
               iterations: int = 5) -> dict:
    """Run one named engine configuration in a fresh world.

    Top-level and addressed by plain strings, so a campaign worker
    process can execute a single configuration under spawn. The
    returned dict is pure JSON data (the word counts included, for
    cross-configuration equality checks).
    """
    from repro.sparklike import Context

    try:
        ctx_kw, cached = CONFIGS[name]
    except KeyError:
        raise ValueError(
            f"unknown sparklike config {name!r}; have "
            f"{sorted(CONFIGS)}") from None
    # Same knobs for every config: parsing cost is real relative to the
    # per-task floor, so laziness/fusion/caching — not startup noise —
    # decide the comparison.
    knobs = {"record_cost": 1e-4, "task_startup": 0.002}
    env, nodes, hdfs, network = _build_world(n_lines=n_lines)
    ctx = Context(env, nodes, hdfs, network, **knobs, **ctx_kw)
    seconds, counts = _run_iterative(ctx, iterations, cached)
    return {
        "sim_seconds": seconds,
        "tasks": ctx.metrics["tasks"],
        "stages": ctx.metrics["stages"],
        "cache_hits": ctx.metrics.get("cache_hits", 0),
        "counts": counts,
    }


def build_comparison_doc(entries: dict) -> dict:
    """Fold per-config entries (as returned by :func:`run_config`) into
    the BENCH_sparklike comparison document. Shared by the in-process
    bench below and the campaign aggregation, so both produce the same
    shape."""
    doc: dict = {"experiment": "sparklike", "configs": {}}
    reference = None
    for name in CONFIGS:
        entry = entries[name]
        counts = entry["counts"]
        if reference is None:
            reference = counts
        doc["configs"][name] = {
            "sim_seconds": entry["sim_seconds"],
            "tasks": entry["tasks"],
            "stages": entry["stages"],
            "cache_hits": entry["cache_hits"],
            "identical_results": counts == reference,
        }
    baseline = doc["configs"][BASELINE]["sim_seconds"]
    for entry in doc["configs"].values():
        entry["speedup"] = baseline / entry["sim_seconds"]
    doc["speedup"] = doc["configs"]["lazy+fusion+cache"]["speedup"]
    doc["identical_results"] = all(
        entry["identical_results"] for entry in doc["configs"].values())
    return doc


def sparklike_result(n_lines: int = 2000, iterations: int = 5) -> dict:
    """Run every engine configuration; returns the full comparison doc."""
    entries = {name: run_config(name, n_lines=n_lines,
                                iterations=iterations)
               for name in CONFIGS}
    folded = build_comparison_doc(entries)
    doc: dict = {"experiment": "sparklike", "n_lines": n_lines,
                 "iterations": iterations}
    doc.update((k, v) for k, v in folded.items() if k != "experiment")
    return doc


def doc_rows(doc: dict):
    """(columns, rows, note) for a comparison document — shared by the
    CLI below and the campaign aggregation table."""
    columns = ["engine config", "sim seconds", "tasks", "cache hits",
               f"speedup vs {BASELINE}"]
    rows = [
        (name, round(entry["sim_seconds"], 4), entry["tasks"],
         entry["cache_hits"], round(entry["speedup"], 2))
        for name, entry in doc["configs"].items()
    ]
    note = (f"iterative wordcount, {doc['iterations']} rounds over "
            f"{doc['n_lines']} lines; identical results across configs: "
            f"{doc['identical_results']}; simulated time, deterministic")
    return columns, rows, note


def sparklike_rows(n_lines: int = 2000, iterations: int = 5):
    """Table shape for ``python -m repro.bench sparklike``."""
    doc = sparklike_result(n_lines=n_lines, iterations=iterations)
    return doc_rows(doc)
