"""SQL queries over data frames — the `sqldf` stand-in (§IV-E.3).

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
vectorised over NumPy columns; GROUP BY, JOIN USING and DISTINCT share
one key-factorisation kernel. NaN is SQL NULL in a key: NaN keys form
one group under GROUP BY and DISTINCT and never match in a join.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional, Union

import numpy as np

from repro.rlang.frame import DataFrame

__all__ = ["SQLError", "parse", "sqldf"]


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


# --------------------------------------------------------------------------
# Relational kernels: one key factorisation behind GROUP BY, JOIN, DISTINCT
# --------------------------------------------------------------------------

def _null_mask(col: np.ndarray) -> Optional[np.ndarray]:
    """Rows whose key is SQL NULL (NaN), or None when there are none."""
    if col.dtype.kind not in "fc":
        return None
    null = np.isnan(col)
    return null if null.any() else None


def _column_codes(col: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense codes of one key column and how many there are.

    Equal values share a code; every NaN shares the last one. The route
    is the column dtype's: floats split NaNs off before sorting, object
    columns sort with Python comparisons (so unorderable mixes are a
    :class:`SQLError`), everything else is a plain ``np.unique``.
    """
    null = _null_mask(col)
    if null is not None:
        keep = ~null
        uniq, inverse = np.unique(col[keep], return_inverse=True)
        codes = np.full(len(col), len(uniq), dtype=np.int64)
        codes[keep] = inverse
        return codes, len(uniq) + 1
    try:
        uniq, codes = np.unique(col, return_inverse=True)
    except TypeError as exc:
        raise SQLError(
            f"key column holds values that cannot be ordered: {exc}"
        ) from None
    return codes, len(uniq)


def _key_codes(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Factorise row keys: ``(codes, first)``.

    ``codes[i]`` is the dense ``int64`` id of row ``i``'s key tuple,
    numbered in first-occurrence order; ``first[g]`` is the first row
    holding key ``g`` (so ``first`` ascends). Columns are combined one
    at a time and re-densified after each, so the running code stays
    below ``nrow`` and ``code * size`` cannot overflow.
    """
    codes, _size = _column_codes(columns[0])
    for col in columns[1:]:
        col_codes, size = _column_codes(col)
        codes = np.unique(codes * size + col_codes, return_inverse=True)[1]
    first = np.unique(codes, return_index=True)[1]   # codes are dense
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_first] = np.arange(len(first))
    return rank[codes], first[by_first]


def _hash_join(left: DataFrame, right: DataFrame,
               using: list[str]) -> DataFrame:
    """Inner equi-join on shared columns (``JOIN ... USING (cols)``).

    Result columns: the key columns once, then the remaining columns of
    each side; non-key name collisions are an error (no qualifiers in
    this dialect). Output pairs are ordered (left row ascending, right
    row ascending). Numeric keys match by value across dtypes
    (``1 == 1.0``), a numeric column never matches a string column,
    and a NaN key matches nothing.
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

    li, ri = _join_pairs([left[k] for k in using],
                         [right[k] for k in using])
    out = DataFrame()
    for name in using + left_rest:
        out[name] = left[name][li]
    for name in right_rest:
        out[name] = right[name][ri]
    return out


def _join_pairs(left_keys: list[np.ndarray], right_keys: list[np.ndarray]
                ) -> tuple[np.ndarray, np.ndarray]:
    """Row index pairs of equal keys, (left asc, right asc) order."""
    n_left = len(left_keys[0])
    none = np.zeros(0, dtype=np.int64)
    columns = []
    for lcol, rcol in zip(left_keys, right_keys):
        if (lcol.dtype.kind in "biufc") != (rcol.dtype.kind in "biufc"):
            return none, none       # numeric vs string: equal to nothing
        columns.append(np.concatenate([lcol, rcol]))
    codes, first = _key_codes(columns)
    left_codes, right_codes = codes[:n_left], codes[n_left:]
    # a NULL key equals nothing: NULL right rows are dropped, which
    # leaves every NULL left row's code without a partner
    right_rows = np.arange(len(right_codes))
    for col in right_keys:
        null = _null_mask(col)
        if null is not None:
            right_rows = right_rows[~null[right_rows]]
    right_codes = right_codes[right_rows]
    # right rows bucketed by code, ascending inside a bucket
    buckets = right_rows[np.argsort(right_codes, kind="stable")]
    bucket_len = np.bincount(right_codes, minlength=len(first))
    bucket_start = np.cumsum(bucket_len) - bucket_len
    matches = bucket_len[left_codes]            # per left row
    li = np.repeat(np.arange(n_left), matches)
    run_start = np.cumsum(matches) - matches    # per left row, in output
    within = np.arange(len(li)) - np.repeat(run_start, matches)
    ri = buckets[np.repeat(bucket_start[left_codes], matches) + within]
    return li, ri


def _distinct_rows(frame: DataFrame) -> DataFrame:
    """Drop duplicate rows, keeping the first occurrence (NaNs are
    equal to each other here, as SQL NULLs are under DISTINCT)."""
    if frame.nrow == 0:
        return frame
    _codes, first = _key_codes([frame[name] for name in frame.names])
    return frame.subset(first)


def _group_frames(frame: DataFrame, keys: list[str]) -> list[DataFrame]:
    """One sub-frame per distinct key, groups in first-occurrence order
    and rows in input order inside a group; NaN keys form one group."""
    if frame.nrow == 0:
        return []
    codes, first = _key_codes([frame[k] for k in keys])
    order = np.argsort(codes, kind="stable")
    sizes = np.bincount(codes, minlength=len(first))
    ends = np.cumsum(sizes)
    return [frame.subset(order[start:end])
            for start, end in zip(ends - sizes, ends)]


def parse(sql: str) -> Query:
    """Parse ``sql`` into a :class:`Query` AST."""
    return _Parser(_tokenize(sql)).parse()


def sqldf(sql: str, frames: dict[str, DataFrame],
          optimize: bool = True) -> DataFrame:
    """Run ``sql`` against the named data frames; returns a DataFrame.

    Routes through the logical planner (:mod:`repro.rlang.plan` /
    :mod:`repro.rlang.exec`): lower the AST, run projection/predicate
    pushdown when ``optimize`` is on, and execute with this module's
    vectorized kernels. ``optimize`` never changes the result — names,
    values and row order are the same either way.
    """
    from repro.rlang.exec import run_query  # lazy: avoids import cycle

    return run_query(parse(sql), frames, optimize=optimize)
