"""Recorded goldens: values only a retired implementation knew, written
down once (each file's ``recorded_from`` says from what) and checked at
exact equality or 1e-9."""

import json
from pathlib import Path


def load_golden(name: str) -> dict:
    return json.loads((Path(__file__).parent / f"{name}.json").read_text())
