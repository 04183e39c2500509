"""netCDF→text conversion and text parsing.

This is the data path the paper's Naive / Vanilla Hadoop / PortHadoop
baselines are forced through (§II-B, §IV-B): every array element becomes a
CSV row ``variable,i0,i1,...,value``, inflating float32 data by roughly an
order of magnitude (the paper measured ~33× against the *compressed*
netCDF size). :func:`parse_csv_fast` reads such a dump back into dense
arrays; the cost model charges it at R ``read.table`` rates, the
sequential text-to-binary conversion that dominates Fig. 7 for the
baselines.
"""

from __future__ import annotations

import io
import itertools
from functools import lru_cache
from typing import BinaryIO

import numpy as np

from repro.formats.container import ContainerReader, FormatError

__all__ = [
    "convert_to_csv_fast",
    "encode_csv_block",
    "parse_csv_fast",
]


@lru_cache(maxsize=8)
def _row_prefixes(var_id: int, shape: tuple[int, ...]) -> tuple[str, ...]:
    """``"{var_id},{i0},...,{ik},"`` for every element of ``shape`` in C
    order. The same for every block of one shape, so it is built once
    and shared; an entry is about as large as the row list of the block
    it serves."""
    axes = [[str(i) for i in range(n)] for n in shape]
    return tuple(",".join((str(var_id),) + idx) + ","
                 for idx in itertools.product(*axes))


def encode_csv_block(data: np.ndarray, var_id: int = 0) -> bytes:
    """Rows ``var_id,i0,...,ik,value`` for every element of ``data`` in C
    order — the one text encoder of the fast numeric format.

    Values are printed in full-width scientific notation (``%.8e``), as
    generic dump tools emit — this is what makes text ~33x the compressed
    binary (§IV-B). The block is dictionary-encoded: each distinct value
    is formatted once and rows are gathered through the inverse index.
    Floats are told apart by their *bit pattern*, not by equality, so
    ``-0.0``/``0.0`` and every NaN keep the spelling a per-element format
    would give them.
    """
    data = np.asarray(data)
    flat = data.reshape(-1)
    if flat.dtype.kind == "f":
        if flat.itemsize > 8:  # longdouble is printed as float64 anyway
            flat = flat.astype(np.float64)
        bits, inverse = np.unique(flat.view(f"u{flat.itemsize}"),
                                  return_inverse=True)
        distinct = bits.view(flat.dtype)
    else:
        distinct, inverse = np.unique(flat, return_inverse=True)
    texts = ["%.8e" % value
             for value in distinct.astype(np.float64).tolist()]
    prefixes = _row_prefixes(var_id, data.shape)
    rows = [prefix + texts[code]
            for prefix, code in zip(prefixes, inverse.tolist())]
    return ("\n".join(rows) + "\n").encode()


def convert_to_csv_fast(reader: ContainerReader, out: BinaryIO,
                        variables: list[str] | None = None) -> int:
    """Dump container variables as CSV rows; returns bytes written.

    One :func:`encode_csv_block` per variable, with numeric variable ids
    (a ``#vars:`` header maps them back) so both dumping and parsing
    stay off the per-element Python path — needed to materialise real
    text baselines' inputs at bench scale in reasonable wall-clock time.
    """
    paths = variables if variables is not None else reader.variable_paths()
    names = [reader.variable(p).name for p in paths]
    header = ("#vars:" + ",".join(names) + "\n").encode()
    out.write(header)
    total = len(header)
    for var_id, path in enumerate(paths):
        blob = encode_csv_block(reader.get_vara(path), var_id)
        out.write(blob)
        total += len(blob)
    return total


def parse_csv_fast(data: bytes) -> dict[str, np.ndarray]:
    """Vectorised parse of :func:`convert_to_csv_fast` output.

    Accepts a whole dump or any block of full lines from one (header
    optional — ids then map to ``var<id>`` names). Returns dense arrays
    with shapes inferred from the max index per axis. Input that is not
    such a dump — ragged or non-numeric rows, a negative or fractional
    variable id or index — raises :class:`FormatError`.
    """
    names: list[str] = []
    if data.startswith(b"#vars:"):
        eol = data.index(b"\n")
        names = data[len(b"#vars:"):eol].decode().split(",")
        data = data[eol + 1:]
    if not data.strip():
        return {}
    try:
        table = np.loadtxt(io.BytesIO(data), delimiter=",", ndmin=2,
                           dtype=np.float64)
    except ValueError as exc:
        raise FormatError(
            f"malformed CSV: {str(exc).split(';')[0]}") from None
    if table.shape[1] < 2:
        raise FormatError("malformed CSV: rows need a variable id and a "
                          "value, got 1 column")
    # Column-major from here on: every check and gather below runs over
    # contiguous columns. One pass over the id/index columns; a NaN, an
    # inf or a fraction does not survive the integer cast unchanged.
    columns = table.T
    with np.errstate(invalid="ignore"):
        keys = columns[:-1].astype(np.int64, order="C")
    bad = (keys < 0) | (keys != columns[:-1])
    if bad.any():
        row = int(bad.any(axis=0).argmax())  # 0-based data row
        kind = "variable id" if bad[0, row] else "index"
        raise FormatError(
            f"malformed CSV: {kind} at row {row} is not a non-negative "
            f"integer: {','.join(format(k, 'g') for k in table[row, :-1])}")
    values = columns[-1].astype(np.float32)
    var_ids = keys[0]
    out: dict[str, np.ndarray] = {}
    for vid in np.unique(var_ids):
        rows = var_ids == vid
        idx = tuple(column[rows] for column in keys[1:])
        if idx:
            arr = np.zeros([column.max() + 1 for column in idx],
                           dtype=np.float32)
            arr[idx] = values[rows]
        else:  # 0-D variable: no index columns, the last row wins
            arr = values[rows][-1].reshape(())
        name = names[vid] if vid < len(names) else f"var{vid}"
        out[name] = arr
    return out
