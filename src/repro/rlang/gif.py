"""Pure-Python animated GIF (GIF89a) encoder.

The paper's visual outputs "are usually animations which consist of a
series of images generated along a specific dimension" (§II-A). This
module produces real, spec-conformant animated GIFs from indexed frames
(the colormap ramp is the palette, so no quantisation is needed), with a
full LZW coder. The decoder that proves frame-exact round trips is a
test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["encode_gif"]

_HEADER = b"GIF89a"
_MAX_CODE = 4096


# --------------------------------------------------------------------------
# LZW
# --------------------------------------------------------------------------

class _BitWriter:
    """LSB-first bit packer emitting 255-byte GIF sub-blocks."""

    def __init__(self):
        self._bytes = bytearray()
        self._current = 0
        self._nbits = 0

    def write(self, code: int, width: int) -> None:
        self._current |= code << self._nbits
        self._nbits += width
        while self._nbits >= 8:
            self._bytes.append(self._current & 0xFF)
            self._current >>= 8
            self._nbits -= 8

    def finish(self) -> bytes:
        if self._nbits:
            self._bytes.append(self._current & 0xFF)
        out = bytearray()
        for pos in range(0, len(self._bytes), 255):
            chunk = self._bytes[pos:pos + 255]
            out.append(len(chunk))
            out.extend(chunk)
        out.append(0)  # block terminator
        return bytes(out)


def _lzw_encode(data: bytes, min_code_size: int) -> bytes:
    clear = 1 << min_code_size
    eoi = clear + 1
    writer = _BitWriter()

    def reset_table():
        return ({bytes([i]): i for i in range(clear)},
                eoi + 1, min_code_size + 1)

    table, next_code, width = reset_table()
    writer.write(clear, width)
    if not data:
        writer.write(eoi, width)
        return writer.finish()

    w = bytes([data[0]])
    for byte in data[1:]:
        wk = w + bytes([byte])
        if wk in table:
            w = wk
            continue
        writer.write(table[w], width)
        table[wk] = next_code
        next_code += 1
        if next_code == (1 << width) and width < 12:
            width += 1
        if next_code >= _MAX_CODE:
            writer.write(clear, width)
            table, next_code, width = reset_table()
        w = bytes([byte])
    writer.write(table[w], width)
    # The decoder appends one more table entry after the final data code
    # and applies its early width bump; mirror that bump before EOI or the
    # decoder reads EOI one bit wider than we wrote it.
    if next_code == (1 << width) - 1 and width < 12:
        width += 1
    writer.write(eoi, width)
    return writer.finish()


# --------------------------------------------------------------------------
# GIF container
# --------------------------------------------------------------------------

def encode_gif(frames: list[np.ndarray], palette: np.ndarray,
               delay_cs: int = 10, loop: bool = True) -> bytes:
    """Encode indexed frames as an animated GIF.

    ``frames``: uint8 arrays of shape (H, W) holding palette indices.
    ``palette``: (N<=256, 3) uint8 RGB. ``delay_cs``: per-frame delay in
    centiseconds.
    """
    if not frames:
        raise ValueError("need at least one frame")
    palette = np.asarray(palette, dtype=np.uint8)
    if palette.ndim != 2 or palette.shape[1] != 3 or len(palette) > 256:
        raise ValueError("palette must be (N<=256, 3) uint8")
    height, width = frames[0].shape
    for frame in frames:
        frame = np.asarray(frame)
        if frame.shape != (height, width) or frame.dtype != np.uint8:
            raise ValueError("frames must share one (H, W) uint8 shape")
        if frame.max(initial=0) >= len(palette):
            raise ValueError("frame index outside palette")

    # Global color table size: next power of two >= len(palette), >= 2.
    table_bits = max(1, int(np.ceil(np.log2(max(2, len(palette))))))
    table_size = 1 << table_bits
    full_palette = np.zeros((table_size, 3), dtype=np.uint8)
    full_palette[:len(palette)] = palette

    out = bytearray()
    out += _HEADER
    out += struct.pack("<HHBBB", width, height,
                       0x80 | (table_bits - 1), 0, 0)
    out += full_palette.tobytes()
    if loop:
        out += (b"\x21\xff\x0bNETSCAPE2.0"
                b"\x03\x01\x00\x00\x00")  # loop forever
    min_code_size = max(2, table_bits)
    for frame in frames:
        out += b"\x21\xf9\x04\x04" + struct.pack("<H", delay_cs) \
            + b"\x00\x00"  # graphic control: no transparency
        out += b"\x2c" + struct.pack("<HHHHB", 0, 0, width, height, 0)
        out += bytes([min_code_size])
        out += _lzw_encode(np.ascontiguousarray(frame).tobytes(),
                           min_code_size)
    out += b"\x3b"
    return bytes(out)
