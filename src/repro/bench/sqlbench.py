"""SQL pushdown vs full-table scans on NU-WRF scinc data — the
BENCH_sql trajectory.

The workload is the paper's Fig. 9 shape: a selective rain query over
synthetic NU-WRF timesteps on the PFS (``WHERE QR > t`` with ``t`` just
under the global maximum) plus a per-level aggregate. Two
configurations run the same queries over identical data:

- ``planner``: pushdown off, the baseline — every chunk of every
  variable of each referenced table moves.
- ``planner+pushdown``: projection pushdown drops the 22 unreferenced
  variables and zone maps prune chunks the predicate cannot match, so
  only a sliver of the file's bytes leave the PFS.

All timings are *simulated* seconds, so the comparison is deterministic
— CI gates identical result frames and a >= 10x bytes-scanned reduction
for the pushdown config. Results land in ``bench_results/BENCH_sql.json``.
"""

from __future__ import annotations

#: the trajectory gate
MIN_BYTES_REDUCTION = 10.0


def _nuwrf_config(shape=(8, 48, 48), timesteps: int = 2):
    from repro.workloads.nuwrf import NUWRFConfig

    return NUWRFConfig(shape=shape, timesteps=timesteps,
                       chunk_stats=True)


def selective_threshold(config) -> float:
    """A QR threshold between the largest and second-largest per-chunk
    maxima across all timesteps: exactly one z-level chunk in one file
    can match, the zone-map pruner's best case (Fig. 9's "only the rainy
    region")."""
    from repro.workloads.nuwrf import synthesize_timestep

    maxima = []
    for step in range(config.timesteps):
        ds = synthesize_timestep(config, step)
        qr = next(var for path, var in ds.all_variables()
                  if path.rsplit("/", 1)[-1] == "QR").data
        for z in range(qr.shape[0]):
            maxima.append(float(qr[z].max()))
    top = sorted(maxima, reverse=True)
    return (top[0] + top[1]) / 2.0


def build_sql_world(config=None, n_nodes: int = 2):
    """A PFS-backed world with zone-mapped NU-WRF files stored.

    Returns ``(env, nodes, scidp, manifest)``; scinc tables are at
    ``pfs://nuwrf/<file>``. Shared by the bench and the session tests.
    """
    from repro.bench.worlds import build_scidp_world
    from repro.workloads.nuwrf import generate_nuwrf

    config = config or _nuwrf_config()
    env, nodes, scidp = build_scidp_world(n_nodes)
    manifest = generate_nuwrf(scidp.pfs, config)
    return env, nodes, scidp, manifest


def _queries(manifest, threshold: float) -> list[str]:
    first = manifest["files"][0].rsplit("/", 1)[-1]
    return [
        # the Fig. 9 selective scan: where is it raining hard?
        "SELECT altitude, longitude, latitude, QR FROM t0 "
        f"WHERE QR > {threshold:.9f}",
        # per-level rain profile: aggregate over two referenced columns
        "SELECT altitude, AVG(QR) AS qr_mean FROM t0 "
        "GROUP BY altitude ORDER BY altitude",
    ], first


#: configurations: name -> pushdown — plain data so a campaign state
#: point can name a config by string
SQL_CONFIGS = {
    "planner": False,
    "planner+pushdown": True,
}
#: the pushdown-off row every ratio is quoted against
BASELINE = "planner"


def serialize_frames(frames) -> list[dict]:
    """JSON form of result DataFrames (column order preserved), so
    configurations run in different worker processes can be compared."""
    return [{"names": frame.names, "columns": frame.to_dict()}
            for frame in frames]


def run_config(name: str, shape=(8, 48, 48), timesteps: int = 2,
               threshold: float | None = None) -> dict:
    """Run one named engine configuration in a fresh world.

    Top-level and addressed by plain strings, so a campaign worker
    process can execute a single configuration under spawn. Returns
    pure JSON data: the scan accounting entry plus the serialized
    result frames (``threshold`` is recomputed deterministically when
    not given).
    """
    try:
        pushdown = SQL_CONFIGS[name]
    except KeyError:
        raise ValueError(
            f"unknown sql config {name!r}; have "
            f"{sorted(SQL_CONFIGS)}") from None
    config = _nuwrf_config(shape=tuple(shape), timesteps=timesteps)
    if threshold is None:
        threshold = selective_threshold(config)
    entry, results = _run_config(pushdown, config, threshold)
    return {"entry": entry, "results": serialize_frames(results),
            "threshold": threshold}


def _run_config(pushdown: bool, config, threshold: float):
    from repro.rlang.session import SQLSession

    env, nodes, scidp, manifest = build_sql_world(config)
    session = SQLSession(env, scidp.storage, nodes[0], pushdown=pushdown)
    for i, path in enumerate(manifest["files"]):
        session.register_scinc(f"t{i}", f"pfs://{path.lstrip('/')}")
    queries, _first = _queries(manifest, threshold)
    t0 = env.now
    results = []
    scans = []
    for sql in queries:
        proc = env.process(session.query(sql))
        env.run()
        results.append(proc.value)
        scans.extend(session.last_scan_info)
    seconds = env.now - t0
    bytes_scanned = sum(info.bytes_read for info in scans)
    bytes_skipped = sum(info.bytes_skipped for info in scans)
    return {
        "sim_seconds": seconds,
        "bytes_scanned": bytes_scanned,
        "bytes_skipped": bytes_skipped,
        "chunks_read": sum(info.chunks_read for info in scans),
        "chunks_pruned": sum(info.chunks_pruned for info in scans),
        "variables_pruned": sum(info.variables_pruned for info in scans),
    }, results


def build_comparison_doc(entries: dict, shape, timesteps: int) -> dict:
    """Fold per-config entries (as returned by :func:`run_config`) into
    the BENCH_sql comparison document. Shared by the in-process bench
    below and the campaign aggregation, so both produce the same
    shape."""
    doc: dict = {"experiment": "sql_pushdown",
                 "shape": list(shape), "timesteps": timesteps,
                 "threshold": entries[BASELINE]["threshold"],
                 "configs": {}}
    reference = None
    for name in SQL_CONFIGS:
        results = entries[name]["results"]
        if reference is None:
            reference = results
        entry = dict(entries[name]["entry"])
        entry["identical_results"] = results == reference
        doc["configs"][name] = entry
    plain = doc["configs"][BASELINE]
    pushed = doc["configs"]["planner+pushdown"]
    doc["bytes_reduction"] = (
        plain["bytes_scanned"] / pushed["bytes_scanned"]
        if pushed["bytes_scanned"] else float("inf"))
    doc["speedup"] = (plain["sim_seconds"] / pushed["sim_seconds"]
                      if pushed["sim_seconds"] else float("inf"))
    doc["identical_results"] = all(
        entry["identical_results"] for entry in doc["configs"].values())
    return doc


def sql_pushdown_result(shape=(8, 48, 48), timesteps: int = 2) -> dict:
    """Run every engine configuration; returns the full comparison doc."""
    config = _nuwrf_config(shape=shape, timesteps=timesteps)
    threshold = selective_threshold(config)
    entries = {name: run_config(name, shape=shape, timesteps=timesteps,
                                threshold=threshold)
               for name in SQL_CONFIGS}
    return build_comparison_doc(entries, shape, timesteps)


def doc_rows(doc: dict):
    """(columns, rows, note) for a comparison document — shared by the
    CLI below and the campaign aggregation table."""
    columns = ["engine config", "sim seconds", "MB scanned",
               "chunks read", "chunks pruned", f"speedup vs {BASELINE}"]
    baseline = doc["configs"][BASELINE]["sim_seconds"]
    rows = [
        (name, round(entry["sim_seconds"], 5),
         round(entry["bytes_scanned"] / 1e6, 3),
         entry["chunks_read"], entry["chunks_pruned"],
         round(baseline / entry["sim_seconds"], 2))
        for name, entry in doc["configs"].items()
    ]
    note = (f"Fig. 9-style selective QR scan over {doc['timesteps']} "
            f"NU-WRF "
            f"timesteps; bytes reduction {doc['bytes_reduction']:.1f}x, "
            f"identical results: {doc['identical_results']}; "
            f"simulated time, deterministic")
    return columns, rows, note


def sql_rows(shape=(8, 48, 48), timesteps: int = 2):
    """Table shape for ``python -m repro.bench sql``."""
    doc = sql_pushdown_result(shape=shape, timesteps=timesteps)
    return doc_rows(doc)


__all__ = ["BASELINE", "MIN_BYTES_REDUCTION", "SQL_CONFIGS",
           "build_comparison_doc", "build_sql_world", "doc_rows",
           "run_config", "selective_threshold", "serialize_frames",
           "sql_pushdown_result", "sql_rows"]
