"""Rewrite passes over logical plans: projection + predicate pushdown,
and interval extraction for zone-map chunk pruning.

Soundness rules, because pruning bugs are silent wrong answers:

- **Projection pushdown** keeps a *superset* of every column the query
  can read (items, predicates, join keys, group/having/order, and
  alias-resolved references). ``SELECT *`` disables it.
- **Predicate pushdown** moves a WHERE conjunct to a scan only when
  every column it reads belongs to that table's schema; joins here are
  inner equi-joins, so filtering a side early removes exactly the rows
  the full predicate would have removed after the join, in the same
  relative order (hash joins emit left-major pairs). Conjuncts with
  aggregates or unresolvable columns stay in the residual filter.
- **Interval extraction** (:func:`column_intervals`) only understands
  operators that are *False on NaN* (=, <, <=, >, >=, BETWEEN, IN, and
  AND/OR of those) with one bare column against literals. Everything
  else — NOT, !=, LIKE, arithmetic over the column — returns ``None``
  (unconstrained), so a chunk is only skipped when its zone map *proves*
  no value (NaN included) can satisfy the pushed conjunct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.rlang.plan import (
    Filter,
    Join,
    PlanNode,
    Scan,
    combine_conjuncts,
    conjuncts,
    plan_scans,
    referenced_columns,
)
from repro.rlang.sqldf import (
    Between,
    BinOp,
    Column,
    Expr,
    InList,
    Literal,
    Query,
    _has_aggregate,
)
from repro.rlang.plan import query_columns

__all__ = [
    "Interval",
    "chunk_matches",
    "column_intervals",
    "optimize",
    "scan_constraints",
]


@dataclass(frozen=True)
class Interval:
    """A numeric interval with independent open/closed endpoints."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def intersect(self, other: "Interval") -> "Interval":
        if other.lo > self.lo or (other.lo == self.lo and other.lo_open):
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open
        if other.hi < self.hi or (other.hi == self.hi and other.hi_open):
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def overlaps_range(self, mn: float, mx: float) -> bool:
        """Does the interval contain any point of the closed [mn, mx]?"""
        if self.hi < mn or (self.hi == mn and self.hi_open):
            return False
        if self.lo > mx or (self.lo == mx and self.lo_open):
            return False
        return True


def _intersect_unions(a: list[Interval],
                      b: list[Interval]) -> list[Interval]:
    out = []
    for x in a:
        for y in b:
            z = x.intersect(y)
            if not z.is_empty():
                out.append(z)
    return out


def _literal_number(expr: Expr) -> Optional[float]:
    if isinstance(expr, Literal) and isinstance(expr.value, (int, float)) \
            and not isinstance(expr.value, bool):
        return float(expr.value)
    return None


def column_intervals(expr: Expr, column: str) -> Optional[list[Interval]]:
    """The value intervals of ``column`` under which ``expr`` can hold.

    Returns ``None`` when the expression does not constrain the column
    (or uses an operator whose NaN/complement semantics make range
    reasoning unsound). An empty list means the predicate is
    unsatisfiable for any value of the column.
    """
    if isinstance(expr, BinOp) and expr.op == "AND":
        left = column_intervals(expr.left, column)
        right = column_intervals(expr.right, column)
        if left is None:
            return right
        if right is None:
            return left
        return _intersect_unions(left, right)
    if isinstance(expr, BinOp) and expr.op == "OR":
        left = column_intervals(expr.left, column)
        right = column_intervals(expr.right, column)
        if left is None or right is None:
            return None          # one branch unconstrained => anything
        return left + right
    if isinstance(expr, BinOp) and expr.op in ("=", "<", "<=", ">", ">="):
        op = expr.op
        lhs, rhs = expr.left, expr.right
        if not (isinstance(lhs, Column) and lhs.name == column):
            # literal-on-left comparisons flip
            if isinstance(rhs, Column) and rhs.name == column:
                lhs, rhs = rhs, lhs
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                      "=": "="}[op]
            else:
                return None
        lit = _literal_number(rhs)
        if lit is None:
            return None
        if op == "=":
            return [Interval(lit, lit)]
        if op == "<":
            return [Interval(hi=lit, hi_open=True)]
        if op == "<=":
            return [Interval(hi=lit)]
        if op == ">":
            return [Interval(lo=lit, lo_open=True)]
        return [Interval(lo=lit)]
    if isinstance(expr, Between) and not expr.negated:
        if isinstance(expr.expr, Column) and expr.expr.name == column:
            low = _literal_number(expr.low)
            high = _literal_number(expr.high)
            if low is not None and high is not None:
                return [Interval(low, high)]
        return None
    if isinstance(expr, InList) and not expr.negated:
        if isinstance(expr.expr, Column) and expr.expr.name == column:
            points = [float(v) for v in expr.options
                      if isinstance(v, (int, float))
                      and not isinstance(v, bool)]
            if len(points) == len(expr.options):
                return [Interval(p, p) for p in points]
        return None
    return None


def scan_constraints(predicate: Optional[Expr]
                     ) -> dict[str, list[Interval]]:
    """Per-column interval constraints implied by a pushed predicate.

    Only conjuncts referencing exactly one column contribute; multiple
    conjuncts on the same column intersect. Every contributing operator
    is False on NaN, so a chunk whose zone-map range misses all
    intervals — or whose values are all NaN — cannot contain a
    satisfying row.
    """
    out: dict[str, list[Interval]] = {}
    for part in conjuncts(predicate):
        cols = referenced_columns(part)
        if len(cols) != 1:
            continue
        (col,) = cols
        intervals = column_intervals(part, col)
        if intervals is None:
            continue
        if col in out:
            out[col] = _intersect_unions(out[col], intervals)
        else:
            out[col] = intervals
    return out


def chunk_matches(intervals: list[Interval], stats) -> bool:
    """Can a chunk with zone map ``stats=(min, max, count)`` contain a
    row satisfying a constraint? ``stats=None`` (no zone map recorded)
    conservatively matches."""
    if stats is None:
        return True
    mn, mx, count = stats
    if count == 0 or mn is None or mx is None:
        return False             # all NaN: range operators are False
    return any(iv.overlaps_range(mn, mx) for iv in intervals)


# --------------------------------------------------------------------------
# Plan rewrites
# --------------------------------------------------------------------------

def optimize(root: PlanNode, query: Query,
             schemas: dict[str, Optional[list[str]]]) -> PlanNode:
    """Run the rewrite passes in place and return the root.

    ``schemas`` maps table name -> column list (None = unknown: that
    table gets no pushdown).
    """
    _push_projections(plan_scans(root), query, schemas)
    return _push_predicates(root, schemas)


def _push_projections(scans: list[Scan], query: Query,
                      schemas: dict[str, Optional[list[str]]]) -> None:
    needed, needs_all = query_columns(query)
    if needs_all:
        return
    for scan in scans:
        schema = schemas.get(scan.table)
        if schema is None:
            continue
        cols = [c for c in schema if c in needed]
        if not cols and schema:
            # a query that reads no columns (SELECT COUNT(*) FROM t,
            # SELECT 1 FROM t) must still see the table's row count,
            # and a zero-column DataFrame has nrow == 0 — keep one
            # column as the row-count carrier
            cols = [schema[0]]
        scan.columns = cols


def _push_predicates(root: PlanNode,
                     schemas: dict[str, Optional[list[str]]]) -> PlanNode:
    if not isinstance(root, (Filter, Join, Scan)):
        child = root.child
        root.child = _push_predicates(child, schemas)
        return root
    if not isinstance(root, Filter):
        return root
    scans = plan_scans(root.child)
    residual: list[Expr] = []
    pushed: dict[int, list[Expr]] = {}
    for part in conjuncts(root.predicate):
        if _has_aggregate(part):
            residual.append(part)
            continue
        cols = referenced_columns(part)
        targets = [
            scan for scan in scans
            if schemas.get(scan.table) is not None
            and cols and cols <= set(schemas[scan.table])
        ]
        if targets:
            # a conjunct on join-key columns lands on every side that
            # has them — inner equi-joins make that sound and prune more
            for scan in targets:
                pushed.setdefault(id(scan), []).append(part)
        else:
            residual.append(part)
    for scan in scans:
        parts = pushed.get(id(scan))
        if parts:
            scan.predicate = combine_conjuncts(parts)
    rest = combine_conjuncts(residual)
    if rest is None:
        return root.child
    root.predicate = rest
    return root
