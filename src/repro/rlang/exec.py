"""Physical execution of logical plans over DataFrames.

The executor runs on the kernels of :mod:`repro.rlang.sqldf`: the
vectorized expression evaluators (``_eval`` / ``_eval_aggregate``) and
the three relational kernels built on one key factorisation
(``_group_frames`` / ``_hash_join`` / ``_distinct_rows``). Frame
content is checked against ``sqlite3`` and brute force
(``tests/rlang/test_relational_kernels.py``,
``tests/rlang/test_planner_equivalence.py``); row order against
goldens recorded from the retired eager evaluator. What the planner
adds on top:

- scans are materialized through a ``resolve`` callback, so the same
  plan runs over in-memory frames (:func:`run_query`) or over
  SciDP-backed tables whose scan applies projection/zone-map pruning
  *before* bytes move (:mod:`repro.rlang.session`);
- GROUP BY and ORDER BY names resolve through SELECT aliases;
- unknown-column errors are :class:`SQLError` and list the available
  columns instead of surfacing a bare ``KeyError``; a comparison or
  arithmetic between a string column and a number is a one-line
  :class:`SQLError`, not numpy's ``TypeError``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.rlang import optimizer as _opt
from repro.rlang.frame import DataFrame
from repro.rlang.plan import (
    Aggregate_,
    Distinct,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    Scan,
    SortOutput,
    SortSource,
    lower,
    plan_scans,
    query_columns,
    referenced_columns,
)
from repro.rlang.sqldf import (
    Column,
    Expr,
    Query,
    SQLError,
    _distinct_rows,
    _eval,
    _eval_aggregate,
    _group_frames,
    _has_aggregate,
    _hash_join,
    _item_name,
)

__all__ = ["execute", "frame_scan", "plan_query", "run_query"]


def _checked(evaluate, expr: Expr, frame: DataFrame, n: int) -> Any:
    """Run an evaluator with unknown columns and operand-type
    mismatches surfaced as one-line SQLErrors."""
    try:
        return evaluate(expr, frame, n)
    except KeyError as exc:
        raise SQLError(f"unknown column: {exc.args[0]}") from None
    except TypeError as exc:
        raise SQLError(f"type mismatch in expression: {exc}") from None


def _eval_cols(expr: Expr, frame: DataFrame, n: int) -> np.ndarray:
    return _checked(_eval, expr, frame, n)


def _eval_aggregate_cols(expr: Expr, frame: DataFrame, n: int) -> Any:
    return _checked(_eval_aggregate, expr, frame, n)


def frame_scan(frame: DataFrame, columns: Optional[list[str]],
               predicate: Optional[Expr]) -> DataFrame:
    """Materialize one in-memory scan: pushed predicate, then pushed
    projection. Row order is the frame's own, so later plan stages see
    exactly the rows the unoptimized plan would, minus excluded ones."""
    out = frame
    if predicate is not None:
        mask = _eval_cols(predicate, out, out.nrow)
        out = out.subset(np.asarray(mask, dtype=bool))
    if columns is not None:
        out = out.select(columns)
    return out


def _with_column(frame: DataFrame, name: str,
                 values: np.ndarray) -> DataFrame:
    out = DataFrame()
    for col in frame.names:
        out[col] = frame[col]
    out[name] = values
    return out


def _aggregate(node: Aggregate_, frame: DataFrame) -> DataFrame:
    if node.distinct:
        raise SQLError(
            "SELECT DISTINCT cannot be combined with aggregation")
    if node.star:
        raise SQLError("SELECT * cannot be combined with aggregation")
    aliases = {
        _item_name(item, i): item.expr
        for i, item in enumerate(node.items)
    }
    if node.group_by:
        keys: list[str] = []
        work = frame
        for i, name in enumerate(node.group_by):
            if name in frame:
                keys.append(name)
                continue
            # the ISSUE-9 usability fix: GROUP BY may name a SELECT
            # alias of a non-aggregate expression
            expr = aliases.get(name)
            if expr is None or _has_aggregate(expr):
                raise SQLError(
                    f"unknown column {name!r} in GROUP BY; "
                    f"have {frame.names}")
            hidden = f"__group_{i}__"
            work = _with_column(
                work, hidden, _eval_cols(expr, frame, frame.nrow))
            keys.append(hidden)
        groups = _group_frames(work, keys)
    else:
        groups = [frame]
    if node.having is not None:
        groups = [
            grp for grp in groups
            if bool(_eval_aggregate_cols(node.having, grp, grp.nrow))
        ]
    names = [_item_name(item, i) for i, item in enumerate(node.items)]
    rows = [
        [_eval_aggregate_cols(item.expr, grp, grp.nrow)
         for item in node.items]
        for grp in groups
    ]
    out = DataFrame()
    for j, name in enumerate(names):
        out[name] = np.array([row[j] for row in rows]) if rows \
            else np.array([])
    return out


def execute(root: PlanNode,
            resolve: Callable[[Scan], DataFrame]) -> DataFrame:
    """Run a logical plan; ``resolve`` materializes each Scan node."""
    def run(node: PlanNode) -> DataFrame:
        if isinstance(node, Scan):
            return resolve(node)
        if isinstance(node, Join):
            left = run(node.left)
            right = resolve(node.right)
            return _hash_join(left, right, node.using)
        if isinstance(node, Filter):
            frame = run(node.child)
            mask = _eval_cols(node.predicate, frame, frame.nrow)
            return frame.subset(np.asarray(mask, dtype=bool))
        if isinstance(node, Aggregate_):
            return _aggregate(node, run(node.child))
        if isinstance(node, SortOutput):
            result = run(node.child)
            for expr, desc in reversed(node.order_by):
                if not isinstance(expr, Column):
                    raise SQLError(
                        "ORDER BY on aggregate queries must name an "
                        "output column")
                try:
                    result = result.order_by(expr.name, decreasing=desc)
                except KeyError as exc:
                    raise SQLError(
                        f"unknown column: {exc.args[0]}") from None
            return result
        if isinstance(node, SortSource):
            ordered = run(node.child)
            aliases = {
                _item_name(item, i): item.expr
                for i, item in enumerate(node.items)
            }
            for expr, desc in reversed(node.order_by):
                if isinstance(expr, Column) and expr.name not in ordered \
                        and expr.name in aliases:
                    expr = aliases[expr.name]
                keys = _eval_cols(expr, ordered, ordered.nrow)
                order = np.argsort(keys, kind="stable")
                if desc:
                    order = order[::-1]
                ordered = ordered.subset(order)
            return ordered
        if isinstance(node, Project):
            frame = run(node.child)
            if node.star:
                return frame
            out = DataFrame()
            for i, item in enumerate(node.items):
                out[_item_name(item, i)] = _eval_cols(
                    item.expr, frame, frame.nrow)
            return out
        if isinstance(node, Distinct):
            return _distinct_rows(run(node.child))
        if isinstance(node, Limit):
            return run(node.child).head(node.n)
        raise SQLError(f"cannot execute {node!r}")  # pragma: no cover

    return run(root)


def plan_query(query: Query, schemas: dict[str, list[str]],
               optimize: bool = True) -> PlanNode:
    """Lower + validate + (optionally) optimize a parsed query.

    ``schemas`` maps every table the query references to its column
    list. Column references that resolve against no table and no SELECT
    alias raise :class:`SQLError` here, *before* any pushdown prunes the
    scans — so the error can list the real available columns. Two SELECT
    items with one output name are an error too: a frame holds one
    column per name, so the second would silently replace the first.
    """
    node = lower(query)
    names: set = set()
    for i, item in enumerate(query.items):
        name = _item_name(item, i)
        if name in names:
            raise SQLError(
                f"duplicate output column {name!r}; give one an alias")
        names.add(name)
    needed, needs_all = query_columns(query)
    if not needs_all:
        available = sorted({c for cols in schemas.values() for c in cols})
        # a SELECT-item alias satisfies a reference only when the
        # aliased expression itself resolves (a bare `SELECT nope` is
        # its own alias and must still error)
        alias_names = {
            _item_name(item, i)
            for i, item in enumerate(query.items)
            if referenced_columns(item.expr) <= set(available)
        }
        for name in sorted(needed - alias_names - set(available)):
            raise SQLError(
                f"unknown column {name!r}; have {available}")
    if optimize:
        node = _opt.optimize(node, query, dict(schemas))
    return node


def run_query(query: Query, frames: dict[str, DataFrame],
              optimize: bool = True) -> DataFrame:
    """Plan + execute a parsed query over in-memory frames.

    ``optimize=False`` executes the plain lowered plan, with no
    pushdown rewrites; both settings return the same frame.
    """
    tables = {scan.table for scan in plan_scans(lower(query))}
    for name in tables:
        if name not in frames:
            raise SQLError(
                f"unknown table {name!r}; have {sorted(frames)}")
    schemas = {name: list(frames[name].names) for name in tables}
    node = plan_query(query, schemas, optimize=optimize)
    return execute(
        node,
        lambda scan: frame_scan(frames[scan.table], scan.columns,
                                scan.predicate))
