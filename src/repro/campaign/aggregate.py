"""Aggregate completed campaign points into comparison tables/JSON.

Aggregation always reads back from the workspace's JSON files — never
from in-memory worker returns — so a serial sweep, a parallel sweep and
a warm re-run of either all aggregate byte-identically. Tables render
through the existing :mod:`repro.bench.reporting` cell builders, the
same surface every ``bench_results/*.txt`` artifact uses.
"""

from __future__ import annotations

from typing import Iterable

from repro.campaign.statepoint import statepoint_id
from repro.campaign.workspace import PointRecord, Workspace

__all__ = ["aggregate_campaign", "campaign_table", "collect_records"]


def collect_records(workspace: Workspace,
                    points: Iterable[dict] | None = None,
                    fingerprint: str | None = None,
                    require_complete: bool = True) -> list[PointRecord]:
    """Load the records to aggregate, in deterministic order.

    With ``points`` (the campaign's declared space) records come back
    in declaration order and a missing/failed point raises — a
    comparison table built from half a sweep would be silently wrong.
    Without ``points``, every workspace point is returned sorted by id.
    """
    if points is None:
        records = list(workspace.records(fingerprint))
        if require_complete:
            records = [r for r in records if r.status == "complete"]
        return records
    records = []
    missing = []
    for statepoint in points:
        pid = statepoint_id(statepoint)
        try:
            record = workspace.load(pid, fingerprint)
        except KeyError:
            record = None
        if record is None or (require_complete
                              and record.status != "complete"):
            missing.append(pid)
        else:
            records.append(record)
    if missing:
        raise LookupError(
            f"{len(missing)} point(s) not complete in {workspace.root} "
            f"(run the campaign first): {', '.join(missing[:5])}"
            + ("..." if len(missing) > 5 else ""))
    return records


def aggregate_campaign(definition, workspace: Workspace, *,
                       quick: bool = False,
                       fingerprint: str | None = None) -> dict:
    """The campaign's comparison document, built from completed points.

    ``fingerprint`` defaults to ``None`` here: aggregation accepts any
    recorded provenance — re-running after a code change is the
    *runner's* job; asking for a table should not demand fresh points.
    """
    records = collect_records(workspace, definition.points(quick=quick),
                              fingerprint=fingerprint)
    return definition.aggregate(records)


def campaign_table(definition, doc: dict) -> tuple:
    """``(columns, rows, note)`` for the aggregated document."""
    return definition.rows(doc)
