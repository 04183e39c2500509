"""Frozen eager `sqldf` evaluator — the ISSUE-9 twin world.

This is the pre-planner evaluator, kept verbatim so the randomized
pushdown-equivalence suite and the BENCH_sql gate can pin the live
planner (:mod:`repro.rlang.plan` / ``optimizer`` / ``exec``) against the
exact historical semantics at 1e-9. Only :mod:`repro.rlang` itself and
:mod:`repro.bench` may import it (layering lint, "frozen sqldf
evaluator"); everyone else uses :func:`repro.rlang.sqldf`.

"It converts the SQL queries into operations upon R data frames since R
data frames are similar as tables." Supported surface:

    SELECT [DISTINCT] expr [AS alias], ... | *
    FROM <frame> [JOIN <frame> USING (col, ...)] ...
    [WHERE predicate]
    [GROUP BY col, ...]
    [HAVING predicate]
    [ORDER BY expr [ASC|DESC], ...]
    [LIMIT n]

Expressions: column refs, numeric/string literals, arithmetic
(+ - * / %), comparisons (= != <> < <= > >=), AND/OR/NOT, parentheses,
[NOT] IN (...), [NOT] BETWEEN ... AND ..., [NOT] LIKE 'pat%', and the
aggregates COUNT(*|expr), SUM, AVG, MIN, MAX. Everything is evaluated
vectorised over NumPy columns; joins are hash equi-joins.

Since ISSUE 12 the live kernels treat a NaN key as SQL NULL (one group
under GROUP BY / DISTINCT, never a join match). This frozen twin keeps
the old behaviour: its per-row ``tuple(col[i] ...)`` keys make a fresh
NaN scalar per row and NaN != NaN, so every NaN key is its own group.
The equivalence suite generates no NaN keys, so the two still agree
wherever they are compared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional, Union

import numpy as np

from repro.rlang.frame import DataFrame

__all__ = ["legacy_sqldf"]


class SQLError(Exception):
    """Lex, parse, or execution errors."""


# --------------------------------------------------------------------------
# Lexer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?
      |\d+(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|%|\(|\)|,)
""", re.VERBOSE)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER",
    "LIMIT", "AS", "AND", "OR", "NOT", "ASC", "DESC", "IN",
    "DISTINCT", "BETWEEN", "LIKE", "JOIN", "USING",
}

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


@dataclass
class _Token:
    kind: str   # "number" | "string" | "ident" | "keyword" | "op"
    value: Any


def _tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise SQLError(f"bad character {sql[pos]!r} at position {pos}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        text = match.group()
        if match.lastgroup == "number":
            value = float(text) if any(c in text for c in ".eE") \
                else int(text)
            tokens.append(_Token("number", value))
        elif match.lastgroup == "string":
            tokens.append(_Token("string", text[1:-1].replace("''", "'")))
        elif match.lastgroup == "ident":
            upper = text.upper()
            if upper in _KEYWORDS:
                tokens.append(_Token("keyword", upper))
            else:
                tokens.append(_Token("ident", text))
        else:
            tokens.append(_Token("op", text))
    return tokens


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass
class Column:
    name: str


@dataclass
class Literal:
    value: Any


@dataclass
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass
class UnaryOp:
    op: str  # "NOT" | "-"
    operand: "Expr"


@dataclass
class Aggregate:
    func: str
    arg: Optional["Expr"]  # None for COUNT(*)


@dataclass
class InList:
    expr: "Expr"
    options: list[Any]
    negated: bool = False


@dataclass
class Between:
    expr: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@dataclass
class Like:
    expr: "Expr"
    pattern: str            # SQL pattern with % and _
    negated: bool = False


Expr = Union[Column, Literal, BinOp, UnaryOp, Aggregate, InList,
             Between, Like]


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str]


@dataclass
class Join:
    table: str
    using: list[str]


@dataclass
class Query:
    items: list[SelectItem]        # empty means SELECT *
    star: bool
    table: str
    joins: list[Join] = field(default_factory=list)
    distinct: bool = False
    where: Optional[Expr] = None
    group_by: list[str] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[tuple[Expr, bool]] = field(default_factory=list)
    limit: Optional[int] = None


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise SQLError("unexpected end of query")
        self.pos += 1
        return token

    def accept(self, kind: str, value: Any = None) -> Optional[_Token]:
        token = self.peek()
        if token and token.kind == kind and (
                value is None or token.value == value):
            self.pos += 1
            return token
        return None

    def expect(self, kind: str, value: Any = None) -> _Token:
        token = self.accept(kind, value)
        if token is None:
            have = self.peek()
            raise SQLError(
                f"expected {value or kind}, got "
                f"{have.value if have else 'end of query'!r}")
        return token

    # -- grammar --------------------------------------------------------
    def parse(self) -> Query:
        self.expect("keyword", "SELECT")
        distinct = bool(self.accept("keyword", "DISTINCT"))
        star = False
        items: list[SelectItem] = []
        if self.accept("op", "*"):
            star = True
        else:
            items.append(self.select_item())
            while self.accept("op", ","):
                items.append(self.select_item())
        self.expect("keyword", "FROM")
        table = self.expect("ident").value
        query = Query(items=items, star=star, table=table,
                      distinct=distinct)
        while self.accept("keyword", "JOIN"):
            join_table = self.expect("ident").value
            self.expect("keyword", "USING")
            self.expect("op", "(")
            using = [self.expect("ident").value]
            while self.accept("op", ","):
                using.append(self.expect("ident").value)
            self.expect("op", ")")
            query.joins.append(Join(join_table, using))
        if self.accept("keyword", "WHERE"):
            query.where = self.expr()
        if self.accept("keyword", "GROUP"):
            self.expect("keyword", "BY")
            query.group_by.append(self.expect("ident").value)
            while self.accept("op", ","):
                query.group_by.append(self.expect("ident").value)
        if self.accept("keyword", "HAVING"):
            query.having = self.expr()
        if self.accept("keyword", "ORDER"):
            self.expect("keyword", "BY")
            query.order_by.append(self.order_item())
            while self.accept("op", ","):
                query.order_by.append(self.order_item())
        if self.accept("keyword", "LIMIT"):
            token = self.expect("number")
            if not isinstance(token.value, int) or token.value < 0:
                raise SQLError("LIMIT must be a non-negative integer")
            query.limit = token.value
        if self.peek() is not None:
            raise SQLError(f"trailing input: {self.peek().value!r}")
        return query

    def select_item(self) -> SelectItem:
        expr = self.expr()
        alias = None
        if self.accept("keyword", "AS"):
            alias = self.expect("ident").value
        else:
            maybe = self.peek()
            if maybe and maybe.kind == "ident":
                alias = self.next().value
        return SelectItem(expr, alias)

    def order_item(self) -> tuple[Expr, bool]:
        expr = self.expr()
        desc = False
        if self.accept("keyword", "DESC"):
            desc = True
        else:
            self.accept("keyword", "ASC")
        return expr, desc

    # expression precedence: OR < AND < NOT < comparison < add < mul < unary
    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.accept("keyword", "OR"):
            left = BinOp("OR", left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.accept("keyword", "AND"):
            left = BinOp("AND", left, self.not_expr())
        return left

    def not_expr(self) -> Expr:
        if self.accept("keyword", "NOT"):
            return UnaryOp("NOT", self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.additive()
        token = self.peek()
        if token and token.kind == "op" and token.value in (
                "=", "!=", "<>", "<", "<=", ">", ">="):
            op = self.next().value
            if op == "<>":
                op = "!="
            return BinOp(op, left, self.additive())
        if token and token.kind == "keyword" and token.value in (
                "IN", "NOT", "BETWEEN", "LIKE"):
            negated = False
            if self.accept("keyword", "NOT"):
                negated = True
            if self.accept("keyword", "BETWEEN"):
                low = self.additive()
                self.expect("keyword", "AND")
                high = self.additive()
                return Between(left, low, high, negated)
            if self.accept("keyword", "LIKE"):
                pattern = self.next()
                if pattern.kind != "string":
                    raise SQLError("LIKE needs a string pattern")
                return Like(left, pattern.value, negated)
            self.expect("keyword", "IN")
            self.expect("op", "(")
            options = [self.literal_value()]
            while self.accept("op", ","):
                options.append(self.literal_value())
            self.expect("op", ")")
            return InList(left, options, negated)
        return left

    def literal_value(self) -> Any:
        token = self.next()
        if token.kind in ("number", "string"):
            return token.value
        raise SQLError(f"expected literal in IN list, got {token.value!r}")

    def additive(self) -> Expr:
        left = self.multiplicative()
        while True:
            token = self.peek()
            if token and token.kind == "op" and token.value in ("+", "-"):
                op = self.next().value
                left = BinOp(op, left, self.multiplicative())
            else:
                return left

    def multiplicative(self) -> Expr:
        left = self.unary()
        while True:
            token = self.peek()
            if token and token.kind == "op" and token.value in (
                    "*", "/", "%"):
                op = self.next().value
                left = BinOp(op, left, self.unary())
            else:
                return left

    def unary(self) -> Expr:
        if self.accept("op", "-"):
            return UnaryOp("-", self.unary())
        if self.accept("op", "+"):
            return self.unary()
        return self.primary()

    def primary(self) -> Expr:
        token = self.next()
        if token.kind == "number" or token.kind == "string":
            return Literal(token.value)
        if token.kind == "op" and token.value == "(":
            inner = self.expr()
            self.expect("op", ")")
            return inner
        if token.kind == "ident":
            name = token.value
            if name.upper() in _AGGREGATES and self.accept("op", "("):
                if self.accept("op", "*"):
                    self.expect("op", ")")
                    if name.upper() != "COUNT":
                        raise SQLError(f"{name}(*) is not valid")
                    return Aggregate("COUNT", None)
                arg = self.expr()
                self.expect("op", ")")
                return Aggregate(name.upper(), arg)
            return Column(name)
        raise SQLError(f"unexpected token {token.value!r}")


# --------------------------------------------------------------------------
# Executor
# --------------------------------------------------------------------------

def _has_aggregate(expr: Optional[Expr]) -> bool:
    if expr is None:
        return False
    if isinstance(expr, Aggregate):
        return True
    if isinstance(expr, BinOp):
        return _has_aggregate(expr.left) or _has_aggregate(expr.right)
    if isinstance(expr, (UnaryOp,)):
        return _has_aggregate(expr.operand)
    if isinstance(expr, (InList, Between, Like)):
        return _has_aggregate(expr.expr)
    return False


def _like_to_mask(values: np.ndarray, pattern: str) -> np.ndarray:
    """SQL LIKE: % = any run, _ = one char. Anchored full match."""
    import re as _re
    regex = _re.compile(
        "".join(".*" if ch == "%" else "." if ch == "_"
                else _re.escape(ch) for ch in pattern) + r"\Z")
    return np.array(
        [bool(regex.match(str(v))) for v in values], dtype=bool)


def _eval(expr: Expr, frame: DataFrame, n: int) -> np.ndarray:
    """Evaluate a non-aggregate expression to a length-n array."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            return np.repeat(np.array([expr.value], dtype=object), n)
        return np.full(n, expr.value)
    if isinstance(expr, Column):
        return frame[expr.name]
    if isinstance(expr, UnaryOp):
        value = _eval(expr.operand, frame, n)
        if expr.op == "NOT":
            return ~value.astype(bool)
        return -value
    if isinstance(expr, InList):
        value = _eval(expr.expr, frame, n)
        mask = np.zeros(n, dtype=bool)
        for option in expr.options:
            mask |= (value == option)
        return ~mask if expr.negated else mask
    if isinstance(expr, Between):
        value = _eval(expr.expr, frame, n)
        low = _eval(expr.low, frame, n)
        high = _eval(expr.high, frame, n)
        mask = (value >= low) & (value <= high)
        return ~mask if expr.negated else mask
    if isinstance(expr, Like):
        value = _eval(expr.expr, frame, n)
        mask = _like_to_mask(value, expr.pattern)
        return ~mask if expr.negated else mask
    if isinstance(expr, BinOp):
        left = _eval(expr.left, frame, n)
        right = _eval(expr.right, frame, n)
        op = expr.op
        if op == "AND":
            return left.astype(bool) & right.astype(bool)
        if op == "OR":
            return left.astype(bool) | right.astype(bool)
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "%":
            return left % right
        raise SQLError(f"unknown operator {op!r}")  # pragma: no cover
    if isinstance(expr, Aggregate):
        raise SQLError("aggregate used outside an aggregating context")
    raise SQLError(f"cannot evaluate {expr!r}")  # pragma: no cover


def _eval_aggregate(expr: Expr, frame: DataFrame, n: int) -> Any:
    """Evaluate an expression that may contain aggregates to a scalar."""
    if isinstance(expr, Aggregate):
        if expr.func == "COUNT" and expr.arg is None:
            return n
        values = _eval(expr.arg, frame, n)
        if n == 0:
            return 0 if expr.func == "COUNT" else float("nan")
        if expr.func == "COUNT":
            return int(len(values))
        if expr.func == "SUM":
            return values.sum()
        if expr.func == "AVG":
            return values.mean()
        if expr.func == "MIN":
            return values.min()
        if expr.func == "MAX":
            return values.max()
        raise SQLError(f"unknown aggregate {expr.func}")  # pragma: no cover
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Column):
        # A bare column in an aggregate context = the group key value.
        values = frame[expr.name]
        if len(values) == 0:
            return None
        return values[0]
    if isinstance(expr, UnaryOp):
        value = _eval_aggregate(expr.operand, frame, n)
        return (not value) if expr.op == "NOT" else -value
    if isinstance(expr, BinOp):
        left = _eval_aggregate(expr.left, frame, n)
        right = _eval_aggregate(expr.right, frame, n)
        return _eval(BinOp(expr.op, Literal(left), Literal(right)),
                     DataFrame(), 1)[0]
    raise SQLError(f"cannot aggregate {expr!r}")  # pragma: no cover


def _item_name(item: SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, Column):
        return item.expr.name
    if isinstance(item.expr, Aggregate):
        arg = item.expr.arg.name if isinstance(item.expr.arg, Column) \
            else ("*" if item.expr.arg is None else "expr")
        return f"{item.expr.func.lower()}_{arg}"
    return f"col{index}"


def _project_plain(query: Query, frame: DataFrame) -> DataFrame:
    if query.star:
        return frame
    out = DataFrame()
    for i, item in enumerate(query.items):
        out[_item_name(item, i)] = _eval(item.expr, frame, frame.nrow)
    return out


def _hash_join(left: DataFrame, right: DataFrame,
               using: list[str]) -> DataFrame:
    """Inner equi-join on shared columns (``JOIN ... USING (cols)``).

    Result columns: the key columns once, then the remaining columns of
    each side; non-key name collisions are an error (no qualifiers in
    this dialect).
    """
    for key in using:
        if key not in left or key not in right:
            raise SQLError(f"USING column {key!r} missing from a side")
    left_rest = [c for c in left.names if c not in using]
    right_rest = [c for c in right.names if c not in using]
    clash = set(left_rest) & set(right_rest)
    if clash:
        raise SQLError(
            f"ambiguous non-key columns in join: {sorted(clash)}")

    index: dict[tuple, list[int]] = {}
    right_keys = [right[k] for k in using]
    for j in range(right.nrow):
        index.setdefault(
            tuple(col[j] for col in right_keys), []).append(j)

    left_rows: list[int] = []
    right_rows: list[int] = []
    left_keys = [left[k] for k in using]
    for i in range(left.nrow):
        for j in index.get(tuple(col[i] for col in left_keys), ()):
            left_rows.append(i)
            right_rows.append(j)

    li = np.array(left_rows, dtype=np.int64)
    ri = np.array(right_rows, dtype=np.int64)
    out = DataFrame()
    for key in using:
        out[key] = left[key][li] if len(li) else left[key][:0]
    for name in left_rest:
        out[name] = left[name][li] if len(li) else left[name][:0]
    for name in right_rest:
        out[name] = right[name][ri] if len(ri) else right[name][:0]
    return out


def _distinct_rows(frame: DataFrame) -> DataFrame:
    """Drop duplicate rows, keeping the first occurrence."""
    seen: set[tuple] = set()
    keep: list[int] = []
    columns = [frame[name] for name in frame.names]
    for i in range(frame.nrow):
        row = tuple(col[i] for col in columns)
        if row not in seen:
            seen.add(row)
            keep.append(i)
    return frame.subset(np.array(keep, dtype=np.int64))


def _group_frames(frame: DataFrame,
                  keys: list[str]) -> list[tuple[tuple, DataFrame]]:
    if frame.nrow == 0:
        return []
    columns = [frame[k] for k in keys]
    seen: dict[tuple, list[int]] = {}
    for i in range(frame.nrow):
        key = tuple(col[i] for col in columns)
        seen.setdefault(key, []).append(i)
    return [(key, frame.subset(np.array(rows)))
            for key, rows in seen.items()]


def _project_grouped(query: Query, frame: DataFrame) -> DataFrame:
    if query.star:
        raise SQLError("SELECT * cannot be combined with aggregation")
    groups = _group_frames(frame, query.group_by) if query.group_by \
        else [((), frame)]
    if query.having is not None:
        groups = [
            (key, grp) for key, grp in groups
            if bool(_eval_aggregate(query.having, grp, grp.nrow))
        ]
    rows: list[list[Any]] = []
    names = [_item_name(item, i) for i, item in enumerate(query.items)]
    for _key, grp in groups:
        rows.append([
            _eval_aggregate(item.expr, grp, grp.nrow)
            for item in query.items
        ])
    out = DataFrame()
    for j, name in enumerate(names):
        out[name] = np.array([row[j] for row in rows]) if rows \
            else np.array([])
    return out


def legacy_sqldf(sql: str, frames: dict[str, DataFrame]) -> DataFrame:
    """Run ``sql`` against the named data frames; returns a DataFrame.

    The frozen eager pipeline: join left-deep, filter, then either the
    aggregate branch (project, order by output column) or the plain
    branch (order on the source frame, project, distinct), then LIMIT.
    """
    query = _Parser(_tokenize(sql)).parse()
    try:
        frame = frames[query.table]
    except KeyError:
        raise SQLError(
            f"unknown table {query.table!r}; have {sorted(frames)}"
        ) from None
    for join in query.joins:
        try:
            right = frames[join.table]
        except KeyError:
            raise SQLError(
                f"unknown table {join.table!r}; have {sorted(frames)}"
            ) from None
        frame = _hash_join(frame, right, join.using)

    if query.where is not None:
        mask = _eval(query.where, frame, frame.nrow)
        frame = frame.subset(np.asarray(mask, dtype=bool))

    aggregating = query.group_by or any(
        _has_aggregate(item.expr) for item in query.items)
    if aggregating:
        if query.distinct:
            raise SQLError(
                "SELECT DISTINCT cannot be combined with aggregation")
        # ORDER BY for aggregate queries references output columns, so
        # project first, then order.
        result = _project_grouped(query, frame)
        for expr, desc in reversed(query.order_by):
            if not isinstance(expr, Column):
                raise SQLError(
                    "ORDER BY on aggregate queries must name an output "
                    "column")
            result = result.order_by(expr.name, decreasing=desc)
    else:
        # Order on the source frame (expressions allowed), then project.
        # A bare ORDER BY name that is a projection alias rather than a
        # source column resolves to the aliased expression.
        aliases = {
            _item_name(item, i): item.expr
            for i, item in enumerate(query.items)
        }
        ordered = frame
        for expr, desc in reversed(query.order_by):
            if isinstance(expr, Column) and expr.name not in frame \
                    and expr.name in aliases:
                expr = aliases[expr.name]
            keys = _eval(expr, ordered, ordered.nrow)
            order = np.argsort(keys, kind="stable")
            if desc:
                order = order[::-1]
            ordered = ordered.subset(order)
        result = _project_plain(query, ordered)
        if query.distinct:
            result = _distinct_rows(result)

    if query.limit is not None:
        result = result.head(query.limit)
    return result
