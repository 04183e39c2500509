"""Logical query plans for `sqldf` — lowering the AST.

:func:`lower` turns a parsed :class:`~repro.rlang.sqldf.Query` into a
tree of logical operators::

    Scan -> [Join]* -> [Filter] -> ( Aggregate -> [SortOutput]
                                   | [SortSource] -> Project -> [Distinct] )
          -> [Limit]

Lowering fixes the node order above; the optimizer's rewrites
(projection/predicate pushdown) never change a result — the equivalence
suite holds pushed == plain on names, values and row order. Scans carry
the two pushdown slots the optimizer fills in: ``columns`` (projection
pruning — ``None`` = every column) and ``predicate`` (conjuncts applied
at scan time, before the plan's residual ``Filter``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.rlang.sqldf import (
    Aggregate,
    Between,
    BinOp,
    Column,
    Expr,
    InList,
    Like,
    Query,
    SelectItem,
    SQLError,
    UnaryOp,
    _has_aggregate,
    _item_name,
)

__all__ = [
    "Aggregate_",
    "Distinct",
    "Filter",
    "Join",
    "Limit",
    "PlanNode",
    "Project",
    "Scan",
    "SortOutput",
    "SortSource",
    "combine_conjuncts",
    "conjuncts",
    "explain",
    "lower",
    "plan_scans",
    "query_columns",
    "referenced_columns",
]


@dataclass
class Scan:
    """Read one named table.

    ``columns`` is the projection pushed down by the optimizer (None =
    all columns); ``predicate`` is the AND of pushed-down conjuncts,
    applied by the source right after materialization — for chunked
    scientific sources it additionally drives zone-map chunk pruning so
    excluded chunks never leave the PFS.
    """

    table: str
    columns: Optional[list[str]] = None
    predicate: Optional[Expr] = None


@dataclass
class Join:
    """Inner equi-join (``JOIN ... USING``) of ``left`` onto ``right``;
    output rows are in (left row ascending, right row ascending) pair
    order."""

    left: "PlanNode"
    right: Scan
    using: list[str]


@dataclass
class Filter:
    child: "PlanNode"
    predicate: Expr


@dataclass
class Aggregate_:
    """GROUP BY / aggregate projection.

    ``group_by`` keeps the raw names; the executor resolves each against
    the source frame first and falls back to SELECT aliases (the ISSUE-9
    usability fix) — a name that is neither errors with the available
    columns listed.
    """

    child: "PlanNode"
    items: list[SelectItem]
    group_by: list[str]
    having: Optional[Expr]
    star: bool
    distinct: bool


@dataclass
class SortOutput:
    """ORDER BY over the projected output (the aggregate branch)."""

    child: "PlanNode"
    order_by: list  # [(Expr, desc)]


@dataclass
class SortSource:
    """ORDER BY on the pre-projection source frame (the plain branch);
    bare names resolve through SELECT aliases when absent from the
    source."""

    child: "PlanNode"
    order_by: list  # [(Expr, desc)]
    items: list[SelectItem]


@dataclass
class Project:
    child: "PlanNode"
    items: list[SelectItem]
    star: bool


@dataclass
class Distinct:
    child: "PlanNode"


@dataclass
class Limit:
    child: "PlanNode"
    n: int


PlanNode = Union[Scan, Join, Filter, Aggregate_, SortOutput, SortSource,
                 Project, Distinct, Limit]


def lower(query: Query) -> PlanNode:
    """AST -> logical plan, in the module docstring's node order."""
    node: PlanNode = Scan(query.table)
    for join in query.joins:
        node = Join(node, Scan(join.table), list(join.using))
    if query.where is not None:
        node = Filter(node, query.where)
    aggregating = bool(query.group_by) or any(
        _has_aggregate(item.expr) for item in query.items)
    if aggregating:
        node = Aggregate_(node, query.items, list(query.group_by),
                          query.having, query.star, query.distinct)
        if query.order_by:
            node = SortOutput(node, list(query.order_by))
    else:
        if query.having is not None:
            raise SQLError(
                "HAVING needs a GROUP BY clause or an aggregate")
        if query.order_by:
            node = SortSource(node, list(query.order_by), query.items)
        node = Project(node, query.items, query.star)
        if query.distinct:
            node = Distinct(node)
    if query.limit is not None:
        node = Limit(node, query.limit)
    return node


# --------------------------------------------------------------------------
# Analyses shared by the optimizer and the executor
# --------------------------------------------------------------------------

def conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten a left-associated AND tree into its conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def combine_conjuncts(parts: list[Expr]) -> Optional[Expr]:
    """Re-associate conjuncts left-to-right (the parser's AND shape)."""
    if not parts:
        return None
    out = parts[0]
    for part in parts[1:]:
        out = BinOp("AND", out, part)
    return out


def referenced_columns(expr: Optional[Expr],
                       out: Optional[set] = None) -> set:
    """Every column name an expression reads."""
    if out is None:
        out = set()
    if expr is None:
        return out
    if isinstance(expr, Column):
        out.add(expr.name)
    elif isinstance(expr, BinOp):
        referenced_columns(expr.left, out)
        referenced_columns(expr.right, out)
    elif isinstance(expr, UnaryOp):
        referenced_columns(expr.operand, out)
    elif isinstance(expr, (InList, Like)):
        referenced_columns(expr.expr, out)
    elif isinstance(expr, Between):
        referenced_columns(expr.expr, out)
        referenced_columns(expr.low, out)
        referenced_columns(expr.high, out)
    elif isinstance(expr, Aggregate):
        referenced_columns(expr.arg, out)
    return out


def query_columns(query: Query) -> tuple[set, bool]:
    """``(column names a query may read, needs_all)``.

    ``needs_all`` is True for ``SELECT *`` — no projection pruning is
    possible. Names include predicate, join-key, group/having/order and
    alias-resolved references, so any scan keeping a superset of them is
    safe.
    """
    if query.star:
        return set(), True
    needed: set = set()
    aliases = {}
    for i, item in enumerate(query.items):
        referenced_columns(item.expr, needed)
        aliases[_item_name(item, i)] = item.expr
    referenced_columns(query.where, needed)
    referenced_columns(query.having, needed)
    for join in query.joins:
        needed.update(join.using)
    for name in query.group_by:
        needed.add(name)
        if name in aliases:
            referenced_columns(aliases[name], needed)
    for expr, _desc in query.order_by:
        referenced_columns(expr, needed)
        if isinstance(expr, Column) and expr.name in aliases:
            referenced_columns(aliases[expr.name], needed)
    return needed, False


def plan_scans(node: PlanNode) -> list[Scan]:
    """Every Scan in the tree, base table first, join order after."""
    if isinstance(node, Scan):
        return [node]
    if isinstance(node, Join):
        return plan_scans(node.left) + [node.right]
    return plan_scans(node.child)


def explain(node: PlanNode, indent: int = 0) -> str:
    """Human-readable plan tree (EXPLAIN-style), for logs and tests."""
    pad = "  " * indent
    if isinstance(node, Scan):
        cols = "*" if node.columns is None else ",".join(node.columns)
        pred = " pushed-predicate" if node.predicate is not None else ""
        return f"{pad}Scan {node.table} [{cols}]{pred}"
    if isinstance(node, Join):
        return (f"{pad}Join using({','.join(node.using)})\n"
                + explain(node.left, indent + 1) + "\n"
                + explain(node.right, indent + 1))
    label = type(node).__name__.rstrip("_")
    return f"{pad}{label}\n" + explain(node.child, indent + 1)
