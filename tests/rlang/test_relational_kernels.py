"""The array-level relational kernels behind GROUP BY, JOIN USING and
DISTINCT, checked against oracles that share no code with them:

- a differential test against stdlib ``sqlite3`` on seeded random
  frames (int, float, string and NULL/NaN keys; one- and two-column
  keys), compared as sorted row multisets;
- ordering properties against a brute-force reference written here:
  groups in first-occurrence order, rows in input order inside a
  group, join pairs in (left ascending, right ascending) order;
- the NaN/NULL rule and the hostile-key cases;
- a call-count guard: a reintroduced per-row Python loop fails it.
"""

import cProfile
import math
import pstats
import sqlite3

import numpy as np
import pytest

from repro.rlang import SQLError, data_frame, sqldf
from repro.rlang.sqldf import _distinct_rows, _group_frames, _hash_join

NAN = float("nan")
KINDS = ("int", "float", "null", "str")


def key_column(rng, kind, n, cardinality=5):
    """One key column of ``n`` rows; "null" is a float column in which
    about a quarter of the keys are NaN (SQL NULL)."""
    draws = rng.integers(0, cardinality, size=n)
    if kind == "int":
        return draws
    if kind == "str":
        return np.array([f"k{d}" for d in draws], dtype=object)
    values = draws * 0.5
    if kind == "null":
        values[rng.random(n) < 0.25] = np.nan
    return values


def value_column(rng, n):
    # multiples of 1/4: every SUM and AVG is exact in both engines,
    # whatever order each adds in
    return rng.integers(-40, 40, size=n) / 4.0


# ---------------------------------------------------- sqlite3 differential

def is_null(value):
    return value is None or (isinstance(value, float) and math.isnan(value))


def _cell(value):
    """A comparable stand-in for one result cell: NULL/NaN sort first,
    numbers compare by value (1 == 1.0), strings after numbers."""
    if is_null(value):
        return (0, 0.0, "")
    if isinstance(value, str):
        return (2, 0.0, value)
    return (1, round(float(value), 9), "")


def multiset(rows):
    return sorted(tuple(_cell(v) for v in row) for row in rows)


def frame_rows(frame):
    return list(zip(*(frame[name].tolist() for name in frame.names)))


def sqlite_rows(sql, frames):
    """Run ``sql`` on sqlite3 tables holding the same rows. Columns are
    declared without a type, so sqlite applies no affinity conversion:
    the text '1' stays different from the number 1, as in the frames;
    LIKE is made case-sensitive, as ours is."""
    db = sqlite3.connect(":memory:")
    try:
        db.execute("PRAGMA case_sensitive_like=ON")
        for table, frame in frames.items():
            db.execute(f"CREATE TABLE {table} ({', '.join(frame.names)})")
            marks = ", ".join("?" * frame.ncol)
            db.executemany(
                f"INSERT INTO {table} VALUES ({marks})",
                [tuple(None if is_null(v) else v for v in row)
                 for row in frame_rows(frame)])
        return db.execute(sql).fetchall()
    finally:
        db.close()


def assert_matches_sqlite(sql, frames):
    ours = sqldf(sql, frames)
    assert multiset(frame_rows(ours)) == multiset(sqlite_rows(sql, frames)), \
        sql


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", KINDS)
def test_group_by_one_key_matches_sqlite(kind, seed):
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    frames = {"t": data_frame(a=key_column(rng, kind, 60),
                              v=value_column(rng, 60))}
    assert_matches_sqlite(
        "SELECT a, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, "
        "MAX(v) AS hi, AVG(v) AS mean FROM t GROUP BY a", frames)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kinds", [("int", "str"), ("null", "int"),
                                   ("float", "null"), ("str", "str")])
def test_group_by_two_keys_matches_sqlite(kinds, seed):
    rng = np.random.default_rng([seed, 100])
    frames = {"t": data_frame(a=key_column(rng, kinds[0], 80, 3),
                              b=key_column(rng, kinds[1], 80, 3),
                              v=value_column(rng, 80))}
    assert_matches_sqlite(
        "SELECT a, b, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, "
        "MAX(v) AS hi, AVG(v) AS mean FROM t GROUP BY a, b", frames)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kinds", [("int",), ("null",), ("str",),
                                   ("int", "null"), ("str", "float")])
def test_distinct_matches_sqlite(kinds, seed):
    rng = np.random.default_rng([seed, 200])
    names = ["a", "b"][:len(kinds)]
    frames = {"t": data_frame(**{
        name: key_column(rng, kind, 50, 4)
        for name, kind in zip(names, kinds)})}
    assert_matches_sqlite(
        f"SELECT DISTINCT {', '.join(names)} FROM t", frames)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kinds", [
    (("int",), ("int",)), (("int",), ("float",)), (("null",), ("null",)),
    (("str",), ("str",)), (("str",), ("int",)),
    (("int", "str"), ("float", "str")), (("null", "int"), ("null", "int")),
])
def test_join_using_matches_sqlite(kinds, seed):
    rng = np.random.default_rng([seed, 300])
    names = ["a", "b"][:len(kinds[0])]
    left = {n: key_column(rng, k, 40, 4) for n, k in zip(names, kinds[0])}
    right = {n: key_column(rng, k, 30, 4) for n, k in zip(names, kinds[1])}
    frames = {"l": data_frame(**left, v=value_column(rng, 40)),
              "r": data_frame(**right, w=value_column(rng, 30))}
    keys = ", ".join(names)
    assert_matches_sqlite(
        f"SELECT {keys}, v, w FROM l JOIN r USING ({keys})", frames)


# ------------------------------------------------- ordering, by brute force

def _key_tuples(columns):
    """Row keys as tuples, every NaN replaced by one NULL marker."""
    return [tuple("NULL" if is_null(v) else v for v in row)
            for row in zip(*(col.tolist() for col in columns))]


def brute_groups(keys):
    """Row indices per distinct key: groups in first-occurrence order,
    rows in input order (dicts keep insertion order)."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def brute_pairs(left_keys, right_keys):
    return [(i, j)
            for i, a in enumerate(left_keys)
            for j, b in enumerate(right_keys)
            if "NULL" not in a and a == b]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kinds", [("int",), ("null",), ("str",),
                                   ("str", "null"), ("int", "float")])
def test_group_and_row_order(kinds, seed):
    rng = np.random.default_rng([seed, 400])
    names = ["a", "b"][:len(kinds)]
    cols = {n: key_column(rng, k, 70, 4) for n, k in zip(names, kinds)}
    frame = data_frame(**cols, row=np.arange(70))
    want = brute_groups(_key_tuples(list(cols.values())))
    got = [grp["row"].tolist() for grp in _group_frames(frame, names)]
    assert got == want
    # DISTINCT keeps each key's first row, in input order
    firsts = _distinct_rows(frame.select(names))
    assert _key_tuples([firsts[n] for n in names]) == \
        _key_tuples([cols[n][[g[0] for g in want]] for n in names])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kinds", [("int",), ("null",), ("str",),
                                   ("int", "str"), ("null", "null")])
def test_join_pair_order(kinds, seed):
    rng = np.random.default_rng([seed, 500])
    names = ["a", "b"][:len(kinds)]
    left = {n: key_column(rng, k, 35, 3) for n, k in zip(names, kinds)}
    right = {n: key_column(rng, k, 25, 3) for n, k in zip(names, kinds)}
    joined = _hash_join(data_frame(**left, li=np.arange(35)),
                        data_frame(**right, ri=np.arange(25)), names)
    want = brute_pairs(_key_tuples(list(left.values())),
                       _key_tuples(list(right.values())))
    assert list(zip(joined["li"].tolist(), joined["ri"].tolist())) == want
    assert joined.names == names + ["li", "ri"]


# ----------------------------------------------------- NaN / NULL semantics

def test_nan_keys_form_one_group_at_first_occurrence():
    frames = {"t": data_frame(a=[1, NAN, 2, NAN, 1])}
    out = sqldf("SELECT a, COUNT(*) AS n FROM t GROUP BY a", frames)
    np.testing.assert_array_equal(out["a"], [1, NAN, 2])
    assert out["n"].tolist() == [2, 2, 1]
    distinct = sqldf("SELECT DISTINCT a FROM t", frames)
    np.testing.assert_array_equal(distinct["a"], [1, NAN, 2])


def test_nan_join_key_matches_nothing():
    frames = {"l": data_frame(a=[NAN, 1.0, NAN], v=[1, 2, 3]),
              "r": data_frame(a=[NAN, NAN, 1.0], w=[4, 5, 6])}
    out = sqldf("SELECT a, v, w FROM l JOIN r USING (a)", frames)
    assert out.to_dict() == {"a": [1.0], "v": [2], "w": [6]}
    only_nan = {"l": frames["l"], "r": data_frame(a=[NAN], w=[7])}
    assert sqldf("SELECT a, v, w FROM l JOIN r USING (a)",
                 only_nan).nrow == 0


def test_nan_in_one_of_two_join_keys_matches_nothing():
    frames = {"l": data_frame(a=[1.0, NAN, 2.0], b=[7, 7, 8], v=[1, 2, 3]),
              "r": data_frame(a=[NAN, 1.0, 2.0], b=[7, 7, 9], w=[4, 5, 6])}
    out = sqldf("SELECT a, b, v, w FROM l JOIN r USING (a, b)", frames)
    assert out.to_dict() == {"a": [1.0], "b": [7], "v": [1], "w": [5]}


# ------------------------------------------------ key dtypes, hostile keys

def test_int_and_float_join_keys_match_by_value():
    frames = {"l": data_frame(k=np.array([1, 2, 3]), v=[10, 20, 30]),
              "r": data_frame(k=np.array([3.0, 1.0, 1.5]), w=[1, 2, 3])}
    out = sqldf("SELECT k, v, w FROM l JOIN r USING (k)", frames)
    assert out.to_dict() == {"k": [1, 3], "v": [10, 30], "w": [2, 1]}
    assert out["k"].dtype == frames["l"]["k"].dtype


def test_string_key_never_matches_numeric_key():
    frames = {"l": data_frame(k=["1", "2"], v=[10, 20]),
              "r": data_frame(k=[1, 2], w=[1, 2])}
    out = sqldf("SELECT k, v, w FROM l JOIN r USING (k)", frames)
    assert out.nrow == 0 and out.names == ["k", "v", "w"]
    flipped = sqldf("SELECT k, v, w FROM r JOIN l USING (k)", frames)
    assert flipped.nrow == 0


def test_unorderable_key_is_a_one_line_sql_error():
    frames = {"t": data_frame(k=np.array([1, "x", 2.5], dtype=object),
                              v=[1, 2, 3])}
    for sql in ("SELECT k, COUNT(*) AS n FROM t GROUP BY k",
                "SELECT DISTINCT k FROM t",
                "SELECT k, v FROM t JOIN u USING (k)"):
        both = dict(frames, u=data_frame(k=np.array(["x"], dtype=object)))
        with pytest.raises(SQLError, match="cannot be ordered") as info:
            sqldf(sql, both)
        assert "\n" not in str(info.value)


def test_zero_row_frames_and_join_sides():
    empty = data_frame(k=np.array([], dtype=np.int64),
                       v=np.array([], dtype=np.float64))
    full = data_frame(k=[1, 2], w=[0.5, 1.5])
    frames = {"e": empty, "f": full}
    assert sqldf("SELECT k, COUNT(*) AS n FROM e GROUP BY k",
                 frames).nrow == 0
    assert sqldf("SELECT DISTINCT k, v FROM e", frames).nrow == 0
    for sql in ("SELECT k, v, w FROM e JOIN f USING (k)",
                "SELECT k, v, w FROM f JOIN e USING (k)"):
        out = sqldf(sql, frames)
        assert out.nrow == 0 and out.names == ["k", "v", "w"]
        assert out["v"].dtype == np.float64


def test_build_side_annotation_cannot_change_join_rows():
    # the big side on the right: there is one join kernel and no
    # build-side choice, so pair order is (left asc, right asc) whatever
    # the relative sizes
    rng = np.random.default_rng(7)
    frames = {"s": data_frame(k=rng.integers(0, 5, 12), v=np.arange(12)),
              "b": data_frame(k=rng.integers(0, 5, 300), w=np.arange(300))}
    sql = "SELECT k, v, w FROM s JOIN b USING (k)"
    pushed, plain = sqldf(sql, frames), sqldf(sql, frames, optimize=False)
    assert pushed == plain
    assert list(zip(pushed["v"].tolist(), pushed["w"].tolist())) == \
        brute_pairs(_key_tuples([frames["s"]["k"]]),
                    _key_tuples([frames["b"]["k"]]))


# ---------------------------------------------------------------- cost guard

def primitive_calls(func, *args):
    profile = cProfile.Profile()
    result = profile.runcall(func, *args)
    return pstats.Stats(profile).prim_calls, result


def test_group_frames_call_count_is_independent_of_row_count():
    rng = np.random.default_rng(0)
    frame = data_frame(k=rng.integers(0, 50, 100_000),
                       v=rng.random(100_000))
    calls, groups = primitive_calls(_group_frames, frame, ["k"])
    assert len(groups) == 50
    assert sum(grp.nrow for grp in groups) == 100_000
    assert calls < 5_000, calls


def test_hash_join_call_count_is_independent_of_row_count():
    rng = np.random.default_rng(1)
    left = data_frame(k=rng.permutation(20_000), v=np.arange(20_000))
    right = data_frame(k=rng.permutation(20_000), w=np.arange(20_000))
    calls, joined = primitive_calls(_hash_join, left, right, ["k"])
    assert joined.nrow == 20_000
    np.testing.assert_array_equal(right["k"][joined["w"]], joined["k"])
    assert calls < 5_000, calls
