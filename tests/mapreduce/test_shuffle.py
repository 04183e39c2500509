"""Tests for partitioner, sort, merge, grouping and size estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.shuffle import (
    estimate_size,
    group_sorted,
    hash_partition,
    hash_partition_many,
    merge_sorted_runs,
    sort_run,
)


def test_hash_partition_deterministic_and_in_range():
    for key in [b"word", "word", 42, ("a", 1), 3.5]:
        p = hash_partition(key, 7)
        assert 0 <= p < 7
        assert hash_partition(key, 7) == p


def test_hash_partition_spreads_keys():
    buckets = {hash_partition(f"key-{i}", 8) for i in range(100)}
    assert len(buckets) == 8


def test_hash_partition_validates():
    with pytest.raises(ValueError):
        hash_partition("k", 0)
    for keys in ([b"k"], [1], []):
        with pytest.raises(ValueError):
            hash_partition_many(keys, 0)


@pytest.mark.parametrize("plain, boxed", [
    (1.5, np.float64(1.5)),
    (0.1, np.float64(0.1)),
    (2.5, np.float32(2.5)),
    (-0.0, np.float64(-0.0)),
    (1e300, np.float64(1e300)),
    (True, np.bool_(True)),
    (False, np.bool_(False)),
    (7, np.int64(7)),
])
def test_equal_python_and_numpy_keys_share_a_partition(plain, boxed):
    """One reduce group must not be split across reducers (nor depend
    on which numpy wrote the scalar's repr)."""
    assert plain == boxed
    for n in (4, 8, 1009):
        assert hash_partition(boxed, n) == hash_partition(plain, n)
        assert hash_partition((1, boxed), n) == hash_partition((1, plain), n)
        assert hash_partition(((boxed,), "k"), n) == \
            hash_partition(((plain,), "k"), n)
        assert hash_partition_many([plain, boxed, (1, boxed)], n) == \
            [hash_partition(plain, n)] * 2 + [hash_partition((1, plain), n)]


def test_sort_run_stable_by_key():
    records = [("b", 1), ("a", 2), ("b", 0), ("a", 1)]
    assert sort_run(records) == [("a", 2), ("a", 1), ("b", 1), ("b", 0)]


def test_merge_sorted_runs_matches_global_sort():
    runs = [
        sort_run([("c", 1), ("a", 1)]),
        sort_run([("b", 2), ("a", 2)]),
        [],
        sort_run([("d", 3)]),
    ]
    merged = merge_sorted_runs(runs)
    assert merged == sort_run([kv for run in runs for kv in run])


def test_group_sorted():
    records = [("a", 1), ("a", 2), ("b", 3)]
    assert list(group_sorted(records)) == [("a", [1, 2]), ("b", [3])]
    assert list(group_sorted([])) == []


def test_estimate_size_basics():
    assert estimate_size(b"12345") == 5
    assert estimate_size("abc") == 3
    assert estimate_size(7) == 8
    assert estimate_size(1.5) == 8
    assert estimate_size(None) == 1
    assert estimate_size(np.zeros((2, 3), dtype=np.float32)) == 24
    assert estimate_size([b"ab", b"cd"]) == 8 + 4
    assert estimate_size({"k": 1}) == 8 + 1 + 8


def test_estimate_size_never_reads_a_repr_for_numpy_bool_or_memoryview():
    # repr is 'np.True_' on numpy 2 and 'True' on numpy 1: neither is a size
    assert estimate_size(np.bool_(True)) == estimate_size(True) == 1
    assert estimate_size(np.bool_(False)) == 1
    assert estimate_size(memoryview(b"abc")) == 3
    assert estimate_size(memoryview(np.zeros(5, dtype=np.float64))) == 40
    assert estimate_size((np.bool_(True), memoryview(b"ab"))) == 8 + 1 + 2


def test_estimate_size_self_referencing_list_terminates():
    cyclic = [b"head"]
    cyclic.append(cyclic)
    # 8 (outer) + 4 (b"head") + fixed cycle cost for the back-reference
    assert estimate_size(cyclic) == 8 + 4 + 8


def test_estimate_size_dict_cycle_terminates():
    outer = {}
    outer["self"] = outer
    outer["n"] = 1
    assert estimate_size(outer) == 8 + len("self") + 8 + len("n") + 8


def test_estimate_size_mutual_cycle_terminates():
    a, b = [], []
    a.append(b)
    b.append(a)
    # a -> (b -> cycle(a))
    assert estimate_size(a) == 8 + (8 + 8)


def test_estimate_size_deep_nesting():
    obj = 1
    for _ in range(50):
        obj = [obj]
    assert estimate_size(obj) == 50 * 8 + 8


def test_estimate_size_shared_substructure_is_not_a_cycle():
    shared = [1, 2]                  # 8 + 16 = 24
    assert estimate_size([shared, shared]) == 8 + 24 + 24


def test_group_sorted_stream_matches_list_grouping():
    from repro.mapreduce.shuffle import group_sorted_stream

    records = [("a", 1), ("a", 2), ("b", 3)]
    assert list(group_sorted_stream(iter(records))) == \
        list(group_sorted(records))
    assert list(group_sorted_stream(iter([]))) == []


def test_nan_keys_never_group_even_when_identical():
    """``k == key`` is False for NaN, also for one NaN object against
    itself; a grouping that short-cuts on identity would merge them."""
    nan = float("nan")
    records = [(1.0, "a"), (1.0, "b"), (nan, "c"), (nan, "d"),
               (float("nan"), "e")]
    for source in (records, iter(records)):
        grouped = list(group_sorted(source))
        assert [values for _key, values in grouped] == \
            [["a", "b"], ["c"], ["d"], ["e"]]


def test_unorderable_keys_of_one_type_raise_type_error():
    """The shuffle leaves Python's error alone; the engines wrap it."""
    records = [((1, "a"), 0), (("a", 1), 1)]
    with pytest.raises(TypeError, match="'int' and 'str'|'str' and 'int'"):
        sort_run(records)
    with pytest.raises(TypeError):
        merge_sorted_runs([records[:1], records[1:]])


def test_merge_sorted_streams_is_lazy():
    from repro.mapreduce.shuffle import merge_sorted_streams

    pulled = []

    def probe(run):
        for kv in run:
            pulled.append(kv)
            yield kv

    stream = merge_sorted_streams([probe([("a", 1), ("z", 2)]),
                                   probe([("b", 3)])])
    next(stream)
    # Only the heads (plus one successor) were pulled, not everything.
    assert len(pulled) < 3


@given(st.lists(st.tuples(
    st.one_of(st.integers(), st.text(max_size=8)),
    st.integers())))
@settings(max_examples=60, deadline=None)
def test_property_merge_of_split_runs_is_total_sort(records):
    half = len(records) // 2
    runs = [sort_run(records[:half]), sort_run(records[half:])]
    assert merge_sorted_runs(runs) == sort_run(records)


@given(st.lists(st.tuples(st.text(max_size=6), st.integers()), min_size=1))
@settings(max_examples=60, deadline=None)
def test_property_grouping_preserves_all_values(records):
    grouped = list(group_sorted(sort_run(records)))
    regenerated = [(k, v) for k, values in grouped for v in values]
    assert sorted(regenerated) == sorted(records)
    keys = [k for k, _ in grouped]
    assert keys == sorted(set(keys))
