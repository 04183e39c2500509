"""Tests for the netCDF-style C API, format detection, and text conversion."""

import io

import numpy as np
import pytest

from repro.formats import Dataset, detect_format
from repro.formats import scinc
from repro.formats.container import FormatError
from repro.formats.detect import FORMAT_FLAT, register_format
from repro.formats.scinc.capi import (
    nc_close,
    nc_get_var,
    nc_get_vara,
    nc_inq,
    nc_inq_var,
    nc_inq_varid,
    nc_open,
)
from repro.formats.text import convert_to_csv_fast, parse_csv_fast


def sample_file():
    ds = Dataset()
    data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    ds.create_variable("qr", ("z", "y", "x"), data, chunk_shape=(1, 3, 4))
    ds.create_variable("qc", ("z", "y", "x"), data * 2, chunk_shape=(1, 3, 4))
    buf = io.BytesIO()
    scinc.write(buf, ds)
    return buf, data


# ---------------------------------------------------------------- C API
def test_capi_open_inq_close():
    buf, _ = sample_file()
    ncid = nc_open(buf)
    info = nc_inq(ncid)
    assert info["nvars"] == 2
    assert info["variables"] == ["/qr", "/qc"]
    nc_close(ncid)
    with pytest.raises(FormatError):
        nc_inq(ncid)


def test_capi_inq_var_metadata():
    buf, _ = sample_file()
    ncid = nc_open(buf)
    varid = nc_inq_varid(ncid, "qr")
    meta = nc_inq_var(ncid, varid)
    assert meta["name"] == "qr"
    assert meta["shape"] == (2, 3, 4)
    assert meta["dims"] == ("z", "y", "x")
    assert meta["nchunks"] == 2
    nc_close(ncid)


def test_capi_get_vara_hyperslab():
    buf, data = sample_file()
    ncid = nc_open(buf)
    varid = nc_inq_varid(ncid, "qr")
    got = nc_get_vara(ncid, varid, (1, 0, 1), (1, 2, 2))
    np.testing.assert_array_equal(got, data[1:2, 0:2, 1:3])
    np.testing.assert_array_equal(nc_get_var(ncid, varid), data)
    nc_close(ncid)


def test_capi_bad_ids():
    buf, _ = sample_file()
    ncid = nc_open(buf)
    with pytest.raises(FormatError):
        nc_inq_varid(ncid, "missing")
    with pytest.raises(FormatError):
        nc_inq_var(ncid, 99)
    nc_close(ncid)
    with pytest.raises(FormatError):
        nc_close(ncid)


def test_capi_open_rejects_non_scinc():
    with pytest.raises(FormatError):
        nc_open(io.BytesIO(b"not a scientific file at all......"))


# ----------------------------------------------------------------- detect
def test_detect_scinc_sdf5_flat():
    from repro.formats import sdf5
    buf, _ = sample_file()
    assert detect_format(buf) == "scinc"
    ds = Dataset()
    ds.create_variable("v", ("x",), np.zeros(2, dtype=np.float32))
    h5 = io.BytesIO()
    sdf5.write(h5, ds)
    assert detect_format(h5) == "sdf5"
    assert detect_format(io.BytesIO(b"a,b\n1,2\n")) == FORMAT_FLAT


def test_register_format_duplicate_rejected():
    with pytest.raises(ValueError):
        register_format("scinc", lambda f: False)


# ------------------------------------------------------------------- text
def test_convert_to_csv_fast_and_parse_roundtrip():
    buf, data = sample_file()
    reader = scinc.Reader(buf)
    out = io.BytesIO()
    convert_to_csv_fast(reader, out, variables=["/qr"])
    tables = parse_csv_fast(out.getvalue())
    assert set(tables) == {"qr"}
    np.testing.assert_allclose(tables["qr"], data, rtol=1e-6)


def test_csv_conversion_inflates_size():
    # Realistic float32 payloads (full mantissas) inflate heavily as text.
    rng = np.random.default_rng(7)
    data = rng.random((4, 5, 6)).astype(np.float32)
    ds = Dataset()
    ds.create_variable("qr", ("z", "y", "x"), data)
    buf = io.BytesIO()
    scinc.write(buf, ds)
    reader = scinc.Reader(buf)
    out = io.BytesIO()
    nbytes = convert_to_csv_fast(reader, out, variables=["/qr"])
    assert nbytes > 4 * data.nbytes  # text ≫ raw binary


def test_convert_all_variables_by_default():
    buf, _ = sample_file()
    reader = scinc.Reader(buf)
    out = io.BytesIO()
    convert_to_csv_fast(reader, out)
    tables = parse_csv_fast(out.getvalue())
    assert set(tables) == {"qr", "qc"}
