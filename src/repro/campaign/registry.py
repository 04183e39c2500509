"""Registry of declared campaign definitions.

A :class:`CampaignDef` binds a name to (1) a parameter-space factory,
(2) a spawn-safe worker reference into :mod:`repro.bench.campaigns`,
(3) an aggregation step folding completed points back into the
comparison document the matching ``bench_results/BENCH_*.json``
artifact carries, and (4) a table shape for the CLI. The simscale,
sparklike and SQL-pushdown benchmark matrices are re-expressed here as
campaigns; ``smoke`` is the small sweep the CI ``campaign`` job runs
twice to gate parallel overlap and warm-cache re-runs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

from repro.campaign.statepoint import ParameterSpace

__all__ = ["CAMPAIGNS", "CampaignDef", "get_campaign"]


@dataclass(frozen=True)
class CampaignDef:
    """A declared campaign: space, worker, aggregation, table shape."""

    name: str
    description: str
    worker: str  # "module:function" spawn-safe reference
    space: Callable[[bool], ParameterSpace]
    aggregate: Callable[[list], dict]
    rows: Callable[[dict], tuple]
    point_timeout: float | None = None

    def points(self, quick: bool = False) -> list[dict]:
        return self.space(quick).points()


# ---------------------------------------------------------------------------
# simscale: engine throughput on the synthetic cluster run, one point
# ---------------------------------------------------------------------------

def _simscale_space(quick: bool = False) -> ParameterSpace:
    base = {"workload": "simscale", "n_nodes": 256, "n_tasks": 10_000,
            "n_jobs": 10, "seed": 2024, "repeats": 3}
    if quick:
        base.update(n_tasks=1000, n_jobs=4, repeats=1)
    return ParameterSpace(base=base)


def _simscale_aggregate(records: list) -> dict:
    (record,) = records
    return record.result


def _simscale_rows(doc: dict) -> tuple:
    from repro.bench.simscale import doc_rows

    return doc_rows(doc)


# ---------------------------------------------------------------------------
# sparklike: one point per engine configuration
# ---------------------------------------------------------------------------

def _sparklike_space(quick: bool = False) -> ParameterSpace:
    from repro.bench.sparkbench import CONFIGS

    base = {"workload": "sparklike", "n_lines": 2000, "iterations": 5}
    if quick:
        base.update(n_lines=400, iterations=3)
    return ParameterSpace(base=base).grid(config=list(CONFIGS))


def _sparklike_aggregate(records: list) -> dict:
    from repro.bench.sparkbench import build_comparison_doc

    entries = {record.statepoint["config"]: record.result
               for record in records}
    spec = records[0].statepoint
    folded = build_comparison_doc(entries)
    doc: dict = {"experiment": "sparklike", "n_lines": spec["n_lines"],
                 "iterations": spec["iterations"]}
    doc.update((k, v) for k, v in folded.items() if k != "experiment")
    return doc


def _sparklike_rows(doc: dict) -> tuple:
    from repro.bench.sparkbench import doc_rows

    return doc_rows(doc)


# ---------------------------------------------------------------------------
# sql: one point per engine configuration
# ---------------------------------------------------------------------------

def _sql_space(quick: bool = False) -> ParameterSpace:
    from repro.bench.sqlbench import SQL_CONFIGS

    base = {"workload": "sql", "shape": [8, 48, 48], "timesteps": 2}
    if quick:
        base.update(shape=[8, 32, 32], timesteps=1)
    return ParameterSpace(base=base).grid(config=list(SQL_CONFIGS))


def _sql_aggregate(records: list) -> dict:
    from repro.bench.sqlbench import build_comparison_doc

    entries = {record.statepoint["config"]: record.result
               for record in records}
    spec = records[0].statepoint
    return build_comparison_doc(entries, tuple(spec["shape"]),
                                spec["timesteps"])


def _sql_rows(doc: dict) -> tuple:
    from repro.bench.sqlbench import doc_rows

    return doc_rows(doc)


# ---------------------------------------------------------------------------
# smoke: the 8-point CI sweep (real miniature DES runs + a fixed stall
# so the parallel-overlap gate is independent of runner core count)
# ---------------------------------------------------------------------------

SMOKE_POINTS = 8


def _smoke_space(quick: bool = False) -> ParameterSpace:
    base = {"workload": "smoke", "n_nodes": 16, "n_tasks": 400,
            "n_jobs": 2, "stall_s": 1.0}
    if quick:
        base.update(n_tasks=200, stall_s=0.0)
    return ParameterSpace(base=base).grid(seed=list(range(SMOKE_POINTS)))


def _smoke_aggregate(records: list) -> dict:
    per_point = sorted((record.result for record in records),
                       key=lambda result: result["seed"])
    signature = zlib.crc32(b"campaign-smoke")
    for result in per_point:
        signature = zlib.crc32(
            repr((result["seed"], result["signature"])).encode(),
            signature)
    return {
        "experiment": "campaign_smoke",
        "points": len(per_point),
        "events_total": sum(r["events"] for r in per_point),
        "tasks_total": sum(r["tasks_completed"] for r in per_point),
        "sim_seconds_total": sum(r["sim_seconds"] for r in per_point),
        "signature": signature,
        "per_point": per_point,
    }


def _smoke_rows(doc: dict) -> tuple:
    columns = ["seed", "events", "sim seconds", "tasks"]
    rows = [
        (result["seed"], result["events"],
         round(result["sim_seconds"], 3), result["tasks_completed"])
        for result in doc["per_point"]
    ]
    note = (f"{doc['points']} points, {doc['events_total']} events "
            f"total, order signature {doc['signature']}")
    return columns, rows, note


CAMPAIGNS: dict[str, CampaignDef] = {
    definition.name: definition for definition in (
        CampaignDef(
            name="simscale",
            description="engine throughput on the 256-node/10k-task "
                        "synthetic cluster run",
            worker="repro.bench.campaigns:simscale_point",
            space=_simscale_space,
            aggregate=_simscale_aggregate,
            rows=_simscale_rows,
            point_timeout=600.0,
        ),
        CampaignDef(
            name="sparklike",
            description="sparklike fusion/cache configurations vs the "
                        "default-knob engine on the iterative wordcount",
            worker="repro.bench.campaigns:sparklike_point",
            space=_sparklike_space,
            aggregate=_sparklike_aggregate,
            rows=_sparklike_rows,
            point_timeout=600.0,
        ),
        CampaignDef(
            name="sql",
            description="SQL planner pushdown vs full-table scans on "
                        "NU-WRF scinc data",
            worker="repro.bench.campaigns:sql_point",
            space=_sql_space,
            aggregate=_sql_aggregate,
            rows=_sql_rows,
            point_timeout=600.0,
        ),
        CampaignDef(
            name="smoke",
            description="8-point miniature sweep for the CI campaign "
                        "job (parallel overlap + warm-cache gates)",
            worker="repro.bench.campaigns:smoke_point",
            space=_smoke_space,
            aggregate=_smoke_aggregate,
            rows=_smoke_rows,
            point_timeout=120.0,
        ),
    )
}


def get_campaign(name: str) -> CampaignDef:
    try:
        return CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; have "
            f"{', '.join(sorted(CAMPAIGNS))}") from None
