"""Recorded goldens: values only a retired implementation knew, written
down once (each file's ``recorded_from`` says from what) and checked at
exact equality or 1e-9."""

import json
import zlib
from pathlib import Path


def load_golden(name: str) -> dict:
    return json.loads((Path(__file__).parent / f"{name}.json").read_text())


def digest(value) -> int:
    """crc32 of ``repr(value)`` — how the goldens record a sequence too
    long to store (orders, clocks, records) as one integer."""
    return zlib.crc32(repr(value).encode())
