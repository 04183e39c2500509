"""Pushdown-equivalence suite: rewrites never change a result, and the
result is right.

Every query is held to three things, none of which needs a second
engine:

- pushed == plain: the planner with projection/predicate pushdown on
  (the default) and with rewrites off (``sqldf(..., optimize=False)``)
  return the same frame — column names, values, row order;
- content == ``sqlite3``: the rows, as a multiset, are what stdlib
  sqlite returns for the same SQL over the same tables (the harness of
  ``test_relational_kernels.py``; a LIMIT is checked as a prefix of the
  unlimited result, since SQL leaves *which* rows a LIMIT keeps open);
- row order == golden: the frame equals, value for value and row for
  row, the one the retired eager evaluator returned at the same seeds
  (``tests/golden/rlang.json``).

A seeded generator covers ~20 randomized shapes (filters, joins,
aggregates, DISTINCT, ORDER BY, LIMIT); targeted cases pin the
satellites: GROUP BY / ORDER BY may reference SELECT aliases, and
unknown-column errors list the available columns.
"""

import random
import re

import numpy as np
import pytest

from repro.rlang import SQLError, data_frame, parse, sqldf
from repro.rlang.exec import plan_query
from repro.rlang.plan import explain

from tests.golden import load_golden
from tests.rlang.test_relational_kernels import assert_matches_sqlite

GOLDEN = load_golden("rlang")


def make_frames(seed=0, n=40):
    rng = random.Random(seed)
    return {
        "t": data_frame(
            x=[rng.randint(0, 9) for _ in range(n)],
            y=[round(rng.uniform(-5, 5), 3) for _ in range(n)],
            k=[rng.randint(0, 3) for _ in range(n)],
            grp=[rng.choice("abcd") for _ in range(n)],
        ),
        "u": data_frame(
            k=[0, 1, 2, 3, 4],
            label=["zero", "one", "two", "three", "four"],
            w=[0.5, 1.5, 2.5, 3.5, 4.5],
        ),
    }


def assert_same(a, b):
    assert a.names == b.names
    assert a.nrow == b.nrow
    for name in a.names:
        np.testing.assert_array_equal(a[name], b[name])


def check_query(sql, frames, golden):
    pushed = sqldf(sql, frames)
    assert_same(sqldf(sql, frames, optimize=False), pushed)
    assert pushed.names == list(golden[sql])
    assert pushed.to_dict() == golden[sql]
    limit = re.search(r" LIMIT (\d+)$", sql)
    unlimited = sql[:limit.start()] if limit else sql
    assert_matches_sqlite(unlimited, frames)
    if limit:
        assert_same(sqldf(unlimited, frames).head(int(limit.group(1))),
                    pushed)


# ------------------------------------------------------ randomized suite

_FILTERS = [
    "", " WHERE x > 4", " WHERE y <= 0.0", " WHERE x BETWEEN 2 AND 7",
    " WHERE grp IN ('a', 'c')", " WHERE NOT grp = 'b'",
    " WHERE x > 2 AND y < 3.0", " WHERE x = 1 OR k = 2",
    " WHERE grp LIKE 'a%'", " WHERE x != 5",
]
_TAILS = ["", " ORDER BY x, y", " ORDER BY y DESC", " LIMIT 7",
          " ORDER BY x LIMIT 5", " LIMIT 0"]


def _generated_queries(seed=2026, count=20):
    """~20 seeded random queries over filters, joins, aggregates."""
    rng = random.Random(seed)
    queries = []
    while len(queries) < count:
        kind = rng.choice(("select", "join", "agg", "distinct"))
        where = rng.choice(_FILTERS)
        tail = rng.choice(_TAILS)
        if kind == "select":
            cols = rng.sample(["x", "y", "k", "grp"], rng.randint(1, 3))
            queries.append(
                f"SELECT {', '.join(cols)} FROM t{where}{tail}")
        elif kind == "join":
            queries.append(
                "SELECT grp, label, y, w FROM t JOIN u USING (k)"
                f"{where.replace('x', 'k')}{tail}")
        elif kind == "agg":
            order = rng.choice(["", " ORDER BY grp"])
            queries.append(
                f"SELECT grp, COUNT(*) AS n, SUM(y) AS s FROM t{where} "
                f"GROUP BY grp{order}")
        else:
            queries.append(f"SELECT DISTINCT grp, k FROM t{where}{tail}")
    return queries


@pytest.mark.parametrize("sql", _generated_queries())
def test_generated_query_equivalence(sql):
    check_query(sql, make_frames(), GOLDEN["generated"])


def test_generated_queries_cover_the_plan_space():
    sqls = _generated_queries()
    assert len(sqls) == 20
    assert any("JOIN" in s for s in sqls)
    assert any("GROUP BY" in s for s in sqls)
    assert any("LIMIT" in s for s in sqls)
    assert any("WHERE" in s for s in sqls)


# ------------------------------------------------------- targeted shapes

@pytest.mark.parametrize("sql", [
    "SELECT * FROM t",
    "SELECT x + k AS xk, y * 2 AS y2 FROM t WHERE y > 0 ORDER BY xk",
    "SELECT grp, AVG(y) AS m FROM t GROUP BY grp HAVING AVG(y) > -1.0",
    "SELECT grp, MIN(y) AS lo, MAX(y) AS hi FROM t GROUP BY grp "
    "ORDER BY grp DESC",
    "SELECT COUNT(*) AS n FROM t WHERE x IN (1, 2, 3)",
    # queries referencing no columns at all: projection pushdown must
    # not prune every column (a zero-column frame loses its row count)
    "SELECT COUNT(*) AS n FROM t",
    "SELECT 1 AS one FROM t",
    "SELECT 1 AS one FROM t LIMIT 4",
    "SELECT label, SUM(x) AS s FROM t JOIN u USING (k) GROUP BY label",
    "SELECT DISTINCT grp FROM t ORDER BY grp LIMIT 2",
    "SELECT x, y FROM t WHERE x NOT BETWEEN 3 AND 8 ORDER BY y",
])
def test_targeted_query_equivalence(sql):
    check_query(sql, make_frames(seed=7), GOLDEN["targeted"])


def test_self_join_shared_scan():
    frames = make_frames(seed=3, n=12)
    frames["t2"] = frames["t"]
    check_query(
        "SELECT grp FROM t JOIN u USING (k) ORDER BY grp LIMIT 9",
        frames, GOLDEN["self_join"])


def test_explain_shows_pruned_columns_and_pushed_predicate():
    query = parse("SELECT label, y FROM t JOIN u USING (k) "
                  "WHERE x > 4 AND w < 3.0")
    schemas = {name: frame.names
               for name, frame in make_frames().items()}
    assert explain(plan_query(query, schemas)).splitlines() == [
        "Project",
        "  Join using(k)",
        "    Scan t [x,y,k] pushed-predicate",
        "    Scan u [k,label,w] pushed-predicate",
    ]
    assert explain(plan_query(query, schemas, optimize=False)
                   ).splitlines() == [
        "Project",
        "  Filter",
        "    Join using(k)",
        "      Scan t [*]",
        "      Scan u [*]",
    ]


# -------------------------------------------------------- alias satellite

def test_group_by_select_alias():
    """GROUP BY may reference a SELECT alias (satellite)."""
    frames = make_frames(seed=11)
    out = sqldf(
        "SELECT x * 2 AS dbl, COUNT(*) AS n FROM t GROUP BY dbl "
        "ORDER BY dbl", frames)
    eager = {}
    for v in frames["t"]["x"]:
        eager[int(v) * 2] = eager.get(int(v) * 2, 0) + 1
    np.testing.assert_array_equal(out["dbl"], sorted(eager))
    np.testing.assert_array_equal(
        out["n"], [eager[d] for d in sorted(eager)])


def test_order_by_select_alias():
    """ORDER BY may reference a SELECT alias (satellite)."""
    frames = make_frames(seed=11)
    out = sqldf("SELECT y * -1 AS neg FROM t ORDER BY neg", frames)
    assert list(out["neg"]) == sorted(-frames["t"]["y"])
    # and the same through the unoptimized planner
    out2 = sqldf("SELECT y * -1 AS neg FROM t ORDER BY neg", frames,
                 optimize=False)
    assert_same(out, out2)


def test_order_by_alias_descending():
    frames = make_frames(seed=11)
    out = sqldf("SELECT x + 1 AS xx FROM t ORDER BY xx DESC LIMIT 3",
                frames)
    assert list(out["xx"]) == sorted(frames["t"]["x"] + 1)[::-1][:3]


# -------------------------------------------- unknown-column diagnostics

def test_unknown_column_lists_available():
    frames = make_frames()
    with pytest.raises(SQLError) as exc:
        sqldf("SELECT nope FROM t", frames)
    msg = str(exc.value)
    assert "nope" in msg
    for name in ("x", "y", "k", "grp"):
        assert name in msg


def test_unknown_column_in_where_lists_available():
    frames = make_frames()
    with pytest.raises(SQLError) as exc:
        sqldf("SELECT x FROM t WHERE missing > 1", frames)
    assert "missing" in str(exc.value)
    assert "grp" in str(exc.value)


def test_unknown_group_by_alias_lists_available():
    frames = make_frames()
    with pytest.raises(SQLError) as exc:
        sqldf("SELECT grp, COUNT(*) AS n FROM t GROUP BY ghost", frames)
    assert "ghost" in str(exc.value)


def test_unknown_table_lists_registered():
    with pytest.raises(SQLError) as exc:
        sqldf("SELECT x FROM nowhere", make_frames())
    msg = str(exc.value)
    assert "nowhere" in msg and "t" in msg and "u" in msg


def test_column_only_in_unreferenced_table_still_errors():
    frames = make_frames()
    with pytest.raises(SQLError):
        sqldf("SELECT label FROM t", frames)  # label lives in u
