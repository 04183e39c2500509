"""The fast numeric CSV codec: ``encode_csv_block`` / ``convert_to_csv_fast``
against an independent per-element oracle, and ``parse_csv_fast`` on
round trips and hostile input.

The oracle is the ``np.char`` chain the encoder replaced. It lives on only
here: text sizes set PFS file sizes and so every simulated copy/read/parse
time the goldens pin, which makes *byte* identity the contract.
"""

import io

import numpy as np
import pytest

from repro.formats import Dataset, scinc
from repro.formats.container import FormatError
from repro.formats.text import (
    convert_to_csv_fast,
    encode_csv_block,
    parse_csv_fast,
)
from repro.workloads.nuwrf import NUWRFConfig, synthesize_timestep


def reference_block(data: np.ndarray, var_id: int) -> bytes:
    """One format call per element and per index — shares no code with
    the dictionary encoder."""
    flat = data.reshape(-1)
    idx = np.unravel_index(np.arange(flat.size), data.shape) \
        if data.shape else ()
    columns = [np.full(flat.size, var_id), *idx]
    parts = [np.char.mod("%d", col.astype(np.int64)) for col in columns]
    parts.append(np.char.mod("%.8e", flat.astype(np.float64)))
    rows = parts[0]
    for part in parts[1:]:
        rows = np.char.add(np.char.add(rows, ","), part)
    return "\n".join(rows.tolist()).encode() + b"\n"


SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-45, -1e-45,
                     3.4e38], dtype=np.float32)


def _cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20180710)
    nuwrf = dict(synthesize_timestep(
        NUWRFConfig(shape=(2, 48, 48)), step=3).all_variables())
    cases = {
        "nuwrf-QR-level": nuwrf["/QR"].data[0],   # sparse, ~100 patterns
        "nuwrf-T-level": nuwrf["/T"].data[1],
        "nuwrf-T-variable": nuwrf["/T"].data,
        "specials": SPECIALS,
        "two-nan-payloads": np.array(
            [0x7FC00000, 0x7FC00001, 0xFFC00000],
            dtype=np.uint32).view(np.float32),
        "empty": np.zeros((0, 3), dtype=np.float32),
    }
    for shape in [(), (7,), (48, 48), (3, 5, 4)]:
        cases[f"normals-{shape}"] = \
            rng.normal(size=shape).astype(np.float32)
    base = rng.normal(size=(10, 12)).astype(np.float32)
    cases["strided-2d"] = base[::2, 1::3]
    cases["strided-1d"] = base[3, ::5]
    cases["transposed"] = base.T
    cases["float64"] = rng.normal(size=(3, 5, 4)) * 1e3
    cases["float64-3-digit-exponent"] = rng.normal(size=(5,)) * 1e150
    cases["float16"] = rng.normal(size=(6,)).astype(np.float16)
    cases["longdouble"] = np.array([0.0, -0.0, 1.5, 1.5], dtype=np.longdouble)
    cases["int32"] = rng.integers(-50, 50, size=(3, 5, 4), dtype=np.int32)
    cases["int64-1d"] = np.array([2 ** 40, -1, 0, 2 ** 40])
    return cases


CASES = _cases()


@pytest.mark.parametrize("var_id", [0, 12])
@pytest.mark.parametrize("name", CASES)
def test_block_bytes_match_per_element_oracle(name, var_id):
    data = CASES[name]
    assert encode_csv_block(data, var_id) == reference_block(data, var_id)


@pytest.mark.parametrize("var_id", [0, 12])
@pytest.mark.parametrize("name", [
    n for n in CASES if n not in ("empty", "float64-3-digit-exponent")])
def test_block_round_trips_through_parse(name, var_id):
    data = CASES[name]
    (got,) = parse_csv_fast(encode_csv_block(data, var_id)).values()
    assert got.dtype == np.float32 and got.shape == data.shape
    if data.dtype == np.float32:
        # %.8e carries 9 significant digits: float32 survives exactly,
        # sign of zero and subnormals included
        assert np.array_equal(got, data, equal_nan=True)
        finite = ~np.isnan(data)
        assert np.array_equal(np.signbit(got[finite]),
                              np.signbit(data[finite]))
    else:
        assert np.allclose(got, data.astype(np.float32), rtol=1e-7, atol=0)


def test_signed_zero_and_nans_are_not_merged():
    """Deduplication is on bit patterns: under float equality -0.0 would
    take 0.0's spelling (or the reverse)."""
    rows = encode_csv_block(SPECIALS).decode().splitlines()
    assert rows[0] == "0,0,0.00000000e+00"
    assert rows[1] == "0,1,-0.00000000e+00"
    assert rows[2] == "0,2,nan"
    assert rows[3:5] == ["0,3,inf", "0,4,-inf"]


def test_prefix_cache_is_keyed_on_var_id_and_shape():
    """More (var_id, shape) pairs than the memo holds, visited twice and
    interleaved: an evicted or stale entry would put the wrong indices in
    front of the values."""
    rng = np.random.default_rng(7)
    blocks = [(var_id, rng.normal(size=shape).astype(np.float32))
              for var_id in (0, 1, 2)
              for shape in [(4,), (2, 2), (1, 4), (4, 1), (2, 2, 1)]]
    for _ in range(2):
        for var_id, data in blocks:
            assert encode_csv_block(data, var_id) == \
                reference_block(data, var_id)


# ------------------------------------------------- whole-file conversion
def _container():
    rng = np.random.default_rng(11)
    ds = Dataset()
    qr = rng.normal(size=(2, 3, 4)).astype(np.float32)
    hgt = rng.normal(size=(1, 5, 6)).astype(np.float32)
    ds.create_variable("QR", ("z", "y", "x"), qr, chunk_shape=(1, 3, 4))
    ds.create_variable("HGT", ("surface", "lat", "lon"), hgt)
    buf = io.BytesIO()
    scinc.write(buf, ds)
    return scinc.Reader(buf), {"QR": qr, "HGT": hgt}


def test_convert_to_csv_fast_round_trips_and_counts_bytes():
    reader, arrays = _container()
    out = io.BytesIO()
    total = convert_to_csv_fast(reader, out)
    dump = out.getvalue()
    assert total == len(dump)
    assert dump == (b"#vars:QR,HGT\n"
                    + reference_block(arrays["QR"], 0)
                    + reference_block(arrays["HGT"], 1))
    parsed = parse_csv_fast(dump)
    assert list(parsed) == ["QR", "HGT"]
    for name, data in arrays.items():
        assert np.array_equal(parsed[name], data)


def test_convert_to_csv_fast_variable_subset_renumbers_ids():
    reader, arrays = _container()
    out = io.BytesIO()
    convert_to_csv_fast(reader, out, variables=["/HGT"])
    assert out.getvalue() == \
        b"#vars:HGT\n" + reference_block(arrays["HGT"], 0)
    # a block of full lines without the header still parses
    (level,) = parse_csv_fast(reference_block(arrays["HGT"], 0)).items()
    assert level[0] == "var0" and np.array_equal(level[1], arrays["HGT"])


# ------------------------------------------------------- hostile input
@pytest.mark.parametrize("blob, needle", [
    (b"0,-1,0,1.5\n0,0,1,2.5\n", "index at row 0"),       # wrapped before
    (b"0,0,0,1\n0,0,1.5,2\n", "index at row 1"),
    (b"0.5,0,0,1\n", "variable id at row 0"),            # truncated before
    (b"-1,0,0,1\n", "variable id at row 0"),             # IndexError before
    (b"#vars:A,B\n-1,0,0,1\n", "variable id at row 0"),  # picked B before
    (b"0,nan,0,1\n", "index at row 0"),
    (b"0,inf,0,1\n", "index at row 0"),
    (b"0,0,0,1\n0,0,1\n", "number of columns changed"),
    # one dump holds variables of one rank: a 2-D block after a 1-D one
    (b"0,0,1\n1,0,0,1\n", "number of columns changed"),
    (b"0,0,abc,1\n", "could not convert string 'abc'"),
    (b"1.5\n", "got 1 column"),
])
def test_parse_rejects_malformed_rows_in_one_line(blob, needle):
    with pytest.raises(FormatError) as caught:
        parse_csv_fast(blob)
    message = str(caught.value)
    assert message.startswith("malformed CSV: ") and needle in message
    assert "\n" not in message
