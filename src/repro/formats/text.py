"""netCDF→text conversion and text parsing.

This is the data path the paper's Naive / Vanilla Hadoop / PortHadoop
baselines are forced through (§II-B, §IV-B): every array element becomes a
CSV row ``variable,i0,i1,...,value``, inflating float32 data by roughly an
order of magnitude (the paper measured ~33× against the *compressed*
netCDF size). ``read_table`` mirrors R's ``read.table`` — the sequential
text-to-binary conversion that dominates Fig. 7 for the baselines.
"""

from __future__ import annotations

import io
import itertools
from functools import lru_cache
from typing import BinaryIO, Iterator

import numpy as np

from repro.formats.container import ContainerReader, FormatError

__all__ = [
    "convert_to_csv",
    "convert_to_csv_fast",
    "csv_rows",
    "encode_csv_block",
    "estimate_csv_size",
    "parse_csv_fast",
    "read_table",
]


def convert_to_csv(reader: ContainerReader, out: BinaryIO,
                   variables: list[str] | None = None) -> int:
    """Convert container variables to CSV rows; returns bytes written.

    One row per element: ``name,idx0,idx1,...,value``. Values are printed
    with full float32 round-trip precision (9 significant digits), like
    the generic dump tools the paper's baselines rely on.
    """
    total = 0
    paths = variables if variables is not None else reader.variable_paths()
    for path in paths:
        var = reader.variable(path)
        data = reader.get_vara(path)
        name = var.name
        flat = data.reshape(-1)
        for flat_idx, value in enumerate(flat):
            idx = np.unravel_index(flat_idx, data.shape) if data.shape else ()
            row = (f"{name},"
                   + ",".join(str(int(i)) for i in idx)
                   + f",{value:.9g}\n").encode()
            out.write(row)
            total += len(row)
    return total


def estimate_csv_size(raw_nbytes: int, itemsize: int = 4,
                      rank: int = 4) -> int:
    """Predict the CSV size for a raw binary payload without converting.

    Per element: name (~3 chars) + rank index fields (~4 chars each incl.
    comma) + value (~13 chars incl. sign/point/exponent) + newline. For
    float32 4-D data this lands near 33 bytes/element ≈ 8.2× the raw
    binary and ≈ 33× the paper's ~4× compressed form — matching §IV-B.
    """
    elements = raw_nbytes // itemsize
    per_element = 3 + 1 + 4 * rank + 13 + 1
    return elements * per_element


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
    """Vectorised CSV dump used by the experiment pipeline.

    Same information as :func:`convert_to_csv` but with numeric variable
    ids (a ``#vars:`` header maps them back) so both dumping and parsing
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


def csv_rows(fileobj: BinaryIO) -> Iterator[list[str]]:
    """Stream CSV rows as string fields."""
    text = io.TextIOWrapper(fileobj, encoding="utf-8", newline="")
    for line in text:
        line = line.strip()
        if line:
            yield line.split(",")
    text.detach()


def read_table(fileobj: BinaryIO) -> dict[str, np.ndarray]:
    """Parse a CSV dump back into dense arrays, R ``read.table`` style.

    Sequential and allocation-heavy by design — this models the baselines'
    dominant Convert cost. Returns ``{variable name: ndarray}``; shapes are
    inferred from the maximum index seen per axis.
    """
    raw: dict[str, list[tuple[tuple[int, ...], float]]] = {}
    for fields in csv_rows(fileobj):
        name = fields[0]
        idx = tuple(int(f) for f in fields[1:-1])
        value = float(fields[-1])
        raw.setdefault(name, []).append((idx, value))
    out: dict[str, np.ndarray] = {}
    for name, entries in raw.items():
        if not entries:
            continue
        rank = len(entries[0][0])
        shape = tuple(
            max(idx[axis] for idx, _ in entries) + 1 for axis in range(rank))
        arr = np.zeros(shape, dtype=np.float32)
        for idx, value in entries:
            arr[idx] = value
        out[name] = arr
    return out
