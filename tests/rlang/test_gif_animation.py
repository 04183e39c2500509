"""Tests for the GIF codec and animation assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rlang.animation import animate_fields, colormap_palette
from repro.rlang.gif import encode_gif

from tests.oracles import decode_gif


def palette():
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(256, 3), dtype=np.uint8)


# ---------------------------------------------------------------- codec
def test_gif_roundtrip_multi_frame():
    rng = np.random.default_rng(1)
    frames = [rng.integers(0, 256, size=(12, 17), dtype=np.uint8)
              for _ in range(4)]
    out, pal = decode_gif(encode_gif(frames, palette()))
    assert len(out) == 4
    for a, b in zip(frames, out):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(pal, palette())


def test_gif_header_and_trailer():
    data = encode_gif([np.zeros((2, 2), dtype=np.uint8)], palette())
    assert data.startswith(b"GIF89a")
    assert data.endswith(b"\x3b")
    assert b"NETSCAPE2.0" in data  # loop extension


def test_gif_no_loop():
    data = encode_gif([np.zeros((2, 2), dtype=np.uint8)], palette(),
                      loop=False)
    assert b"NETSCAPE2.0" not in data
    frames, _ = decode_gif(data)
    assert len(frames) == 1


def test_gif_small_palette():
    small = np.array([[0, 0, 0], [255, 255, 255]], dtype=np.uint8)
    frame = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    frames, pal = decode_gif(encode_gif([frame], small))
    np.testing.assert_array_equal(frames[0], frame)
    np.testing.assert_array_equal(pal[:2], small)


def test_gif_table_reset_on_large_random_frame():
    rng = np.random.default_rng(2)
    frame = rng.integers(0, 256, size=(90, 90), dtype=np.uint8)
    frames, _ = decode_gif(encode_gif([frame], palette()))
    np.testing.assert_array_equal(frames[0], frame)


def test_gif_validation():
    with pytest.raises(ValueError):
        encode_gif([], palette())
    with pytest.raises(ValueError):
        encode_gif([np.zeros((2, 2), dtype=np.uint8)],
                   np.zeros((300, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        encode_gif([np.zeros((2, 2), dtype=np.float32)], palette())
    # Frame index outside a small palette.
    with pytest.raises(ValueError):
        encode_gif([np.full((2, 2), 9, dtype=np.uint8)],
                   np.zeros((4, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        decode_gif(b"JFIF....")


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_property_gif_roundtrip(h, w, n_frames, seed):
    rng = np.random.default_rng(seed)
    frames = [rng.integers(0, 256, size=(h, w), dtype=np.uint8)
              for _ in range(n_frames)]
    out, _pal = decode_gif(encode_gif(frames, palette()))
    assert len(out) == n_frames
    for a, b in zip(frames, out):
        np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------- animation
def test_colormap_palette_shape():
    pal = colormap_palette("jet")
    assert pal.shape == (256, 3)
    assert pal.dtype == np.uint8


def test_animate_fields_produces_decodable_gif():
    rng = np.random.default_rng(3)
    fields = [rng.random((10, 10)) for _ in range(5)]
    gif = animate_fields(fields, resolution=(32, 32))
    frames, pal = decode_gif(gif)
    assert len(frames) == 5
    assert frames[0].shape == (32, 32)
    np.testing.assert_array_equal(pal, colormap_palette("jet"))


def test_animation_normalises_across_series():
    """A frame's colours must reflect the series-wide range: the max of
    the whole series maps to index 255, even if it is in frame 2."""
    low = np.zeros((4, 4))
    high = np.full((4, 4), 10.0)
    gif = animate_fields([low, high], resolution=(4, 4))
    frames, _ = decode_gif(gif)
    assert frames[0].max() == 0
    assert frames[1].min() == 255


def test_animate_validation():
    with pytest.raises(ValueError):
        animate_fields([])
    with pytest.raises(ValueError):
        animate_fields([np.zeros(5)])


def test_animation_constant_series():
    gif = animate_fields([np.ones((3, 3))] * 2, resolution=(3, 3))
    frames, _ = decode_gif(gif)
    assert all((f == 0).all() for f in frames)
