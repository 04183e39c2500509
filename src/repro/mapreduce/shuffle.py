"""Partitioning, sorting, merging, and payload size estimation.

The partition fold and the merge order are part of the golden numbers
(they decide which reducer owns a key and in what order equal keys are
reduced), so both are specified by the scalar references in
``tests/oracles.py`` and held bit-identical by the shuffle equivalence
tests under ``tests/mapreduce/``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "estimate_records",
    "estimate_size",
    "group_sorted",
    "group_sorted_stream",
    "hash_partition",
    "hash_partition_many",
    "merge_sorted_runs",
    "partition_run",
    "sort_run",
]

#: ``& _FOLD_MASK`` == ``% 2**31`` for non-negative values — the fold's
#: modulus. Because 2**31 divides 2**64, uint64 wraparound in the
#: vectorized path is congruent to the byte loop's per-step masking.
_FOLD_MASK = 0x7FFFFFFF
#: below this key length the plain byte loop beats numpy call overhead
_VECTOR_MIN_BYTES = 32
#: keys folded per matrix product, and the padded cells (8 B each as
#: uint64) above which a slice of keys is folded one key at a time
_BATCH_ROWS = 4096
_BATCH_CELLS = 1 << 20

#: growing cache of [31**0, 31**1, ...] mod 2**64 (natural uint64 wrap)
_POW31 = np.ones(1, dtype=np.uint64)


def _powers31(n: int) -> np.ndarray:
    """First ``n`` powers of 31 as uint64 (cached, grown geometrically)."""
    global _POW31
    if len(_POW31) < n:
        m = len(_POW31)
        grown = np.empty(max(n, 2 * m), dtype=np.uint64)
        grown[:m] = _POW31
        thirty_one = np.uint64(31)
        with np.errstate(over="ignore"):  # uint64 wrap is the point
            for i in range(m, len(grown)):
                grown[i] = grown[i - 1] * thirty_one
        _POW31 = grown
    return _POW31[:n]


def _fold31(data: bytes) -> int:
    """``h = (h * 31 + b) & 0x7FFFFFFF`` over ``data``, vectorized.

    The loop computes ``sum(b_i * 31**(n-1-i)) mod 2**31``; the numpy
    path evaluates the same polynomial in uint64 (wraparound mod 2**64
    is congruent mod 2**31) and masks once — bit-identical to the
    reference fold without per-byte Python iteration.
    """
    n = len(data)
    if n < _VECTOR_MIN_BYTES:
        h = 0
        for b in data:
            h = (h * 31 + b) & _FOLD_MASK
        return h
    arr = np.frombuffer(data, dtype=np.uint8)
    total = np.multiply(
        arr, _powers31(n)[::-1], dtype=np.uint64).sum(dtype=np.uint64)
    return int(total) & _FOLD_MASK


@functools.lru_cache(maxsize=8192)
def _str_fold(key: str) -> int:
    """Memoized encode + fold for str keys (hot in wordcount-shaped
    jobs, where the same few thousand words repeat per split)."""
    return _fold31(key.encode())


def hash_partition(key: Any, n_partitions: int) -> int:
    """Deterministic partitioner (Python's hash is salted for str — use a
    stable fold instead so runs are reproducible). Equal Python and
    numpy scalars share a partition: floats fold as ``repr(float(key))``
    and ``np.bool_`` as ``bool``, never through numpy's own repr."""
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    if isinstance(key, bytes):
        h = _fold31(key)
    elif isinstance(key, str):
        h = _str_fold(key)
    elif isinstance(key, (int, np.integer, np.bool_)):
        h = int(key) & 0x7FFFFFFF
    elif isinstance(key, (float, np.floating)):
        h = hash_partition(repr(float(key)), 0x7FFFFFFF)
    elif isinstance(key, tuple):
        h = 0
        for item in key:
            h = (h * 1000003 + hash_partition(item, 0x7FFFFFFF)) \
                & 0x7FFFFFFF
    else:
        h = hash_partition(repr(key), 0x7FFFFFFF)
    return h % n_partitions


def hash_partition_many(keys: Sequence[Any], n_partitions: int) -> list[int]:
    """:func:`hash_partition` of every key of one run, in one pass.

    Runs of all-``bytes`` (or all-``str``, encoded) keys are left-padded
    with ``\\0`` to one width — leading zeros add nothing to the
    31-polynomial — and folded ``_BATCH_ROWS`` keys at a time as one
    uint64 matrix–vector product against :func:`_powers31`, masked once:
    bit-identical to :func:`_fold31` per key by the same 2**31 | 2**64
    argument. Every other run, and a slice whose padding would exceed
    ``_BATCH_CELLS``, goes through the scalar definition key by key.
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    kinds = set(map(type, keys))
    if kinds == {str}:
        keys = [key.encode() for key in keys]
    elif kinds != {bytes}:
        return [hash_partition(key, n_partitions) for key in keys]
    out: list[int] = []
    for lo in range(0, len(keys), _BATCH_ROWS):
        rows = keys[lo:lo + _BATCH_ROWS]
        lengths = list(map(len, rows))
        width = max(1, max(lengths))
        if len(rows) * width > _BATCH_CELLS:
            out += [_fold31(key) % n_partitions for key in rows]
            continue
        if min(lengths) < width:
            rows = [key.rjust(width, b"\0") for key in rows]
        matrix = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(
            len(rows), width)
        folds = matrix.astype(np.uint64) @ _powers31(width)[::-1]
        out += ((folds & np.uint64(_FOLD_MASK))
                % np.uint64(n_partitions)).tolist()
    return out


def partition_run(records: Sequence[tuple[Any, Any]],
                  n_partitions: int) -> list[list[tuple[Any, Any]]]:
    """Split one task's (key, value) output into per-reducer buckets,
    keeping record order inside each bucket."""
    buckets: list[list] = [[] for _ in range(n_partitions)]
    owners = hash_partition_many(
        [key for key, _value in records], n_partitions)
    for owner, record in zip(owners, records):
        buckets[owner].append(record)
    return buckets


_first = operator.itemgetter(0)


def _key_order(key: Any):
    """Total order over mixed key types: by type name, then value."""
    return (type(key).__name__, key)


def _record_order(record: tuple[Any, Any]):
    return _key_order(record[0])


def sort_run(records: Iterable[tuple[Any, Any]]) -> list[tuple[Any, Any]]:
    """Stable sort of (key, value) records by key. Keys of one exact
    type make :func:`_key_order`'s type name constant, so the run sorts
    on the bare key. Unorderable keys raise Python's ``TypeError``; the
    engines turn it into their own one-line error."""
    records = list(records)
    if len(set(map(type, map(_first, records)))) > 1:
        return sorted(records, key=_record_order)
    return sorted(records, key=_first)


def merge_sorted_runs(
        runs: Iterable[Iterable[tuple[Any, Any]]]
) -> list[tuple[Any, Any]]:
    """Merge key-sorted runs: concatenate in run order, one stable sort.

    Timsort gallops over the pre-sorted runs and, being stable, leaves
    equal keys in run order, then record order: ``heapq.merge``'s
    order, record for record. Both
    engines' reduce sides call this; their runs are materialised lists.
    """
    return sort_run(itertools.chain.from_iterable(runs))


def group_sorted(
        records: Iterable[tuple[Any, Any]]
) -> Iterator[tuple[Any, list[Any]]]:
    """Group key-sorted records (list or lazy) into (key, [values]).
    Membership is ``==`` with no identity shortcut: NaN keys never group."""
    it = iter(records)
    try:
        key, value = next(it)
    except StopIteration:
        return
    values = [value]
    for k, v in it:
        if k == key:
            values.append(v)
        else:
            yield key, values
            key, values = k, [v]
    yield key, values


group_sorted_stream = group_sorted


#: bytes charged for a container reached through a reference cycle
_CYCLE_COST = 8


def estimate_size(obj: Any) -> int:
    """Serialized-size estimate for shuffle/spill accounting (bytes).

    Container recursion is cycle-guarded: a container reached again on
    its *own* recursion path charges a fixed :data:`_CYCLE_COST` instead
    of recursing forever. Shared (acyclic) substructure is still counted
    at every appearance, matching the reference estimate.
    """
    return _estimate_size(obj, None)


def _estimate_size(obj: Any, path) -> int:
    if obj is None:
        return 1
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode())
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, np.integer)):
        return 8
    if isinstance(obj, (float, np.floating)):
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    is_seq = isinstance(obj, (list, tuple, set, frozenset))
    if is_seq or isinstance(obj, dict):
        oid = id(obj)
        if path is None:
            path = {oid}
        elif oid in path:
            return _CYCLE_COST
        else:
            path.add(oid)
        try:
            if is_seq:
                return 8 + sum(_estimate_size(item, path) for item in obj)
            return 8 + sum(
                _estimate_size(k, path) + _estimate_size(v, path)
                for k, v in obj.items())
        finally:
            path.discard(oid)
    if isinstance(obj, np.bool_):
        return 1
    if isinstance(obj, memoryview):
        return obj.nbytes
    # Fallback: repr length is a tolerable proxy for odd objects.
    return len(repr(obj))


def estimate_records(records: Sequence[tuple[Any, Any]]) -> int:
    """``sum(estimate_size(k) + estimate_size(v))`` over one run: a key
    or value column that is all ``bytes`` costs one ``len`` pass."""
    total = 0
    for column in zip(*records):
        if set(map(type, column)) <= {bytes, bytearray}:
            total += sum(map(len, column))
        else:
            total += sum(map(estimate_size, column))
    return total
