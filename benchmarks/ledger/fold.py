"""Layer fold and ledger arithmetic (pure functions, no repro imports).

A traced run executes its iterations under a ``cProfile.Profile``; this
module folds the profiler's per-function rows into the ledger's layers
by *defining file* (C functions into ``ext.*`` buckets), counts the
calls that cross a layer boundary, and holds the gap arithmetic
``--selfcheck`` uses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

#: report order; ``driver`` is the benchmark's own code (loop, lambdas
#: handed to the engines, span bookkeeping)
LAYERS = (
    "workloads", "formats", "sim.engine", "sim.resources", "cluster",
    "pfs", "hdfs", "io", "core", "mapreduce", "sparklike", "rlang",
    "obs", "ext.zlib", "ext.numpy", "ext.other", "driver",
)

_PACKAGES = {"workloads", "formats", "cluster", "pfs", "hdfs", "io",
             "core", "mapreduce", "sparklike", "rlang", "obs"}


@dataclass
class Row:
    """One profiled function: identity, own time, and outgoing edges."""

    key: object
    file: Optional[str]          # None for C functions
    name: str
    calls: int
    self_s: float
    #: (callee key, calls along this edge)
    callees: list[tuple[object, int]] = field(default_factory=list)


def layer_of(file: Optional[str], name: str, src_root: str,
             driver_root: str) -> str:
    """Layer owning a function defined in ``file`` (None = C function).

    ``src_root`` is the directory holding the ``repro`` package and
    ``driver_root`` the benchmark's own directory; both absolute.
    """
    if file is None:
        if "zlib" in name:
            return "ext.zlib"
        return "ext.numpy" if "numpy" in name else "ext.other"
    path = file.replace(os.sep, "/")
    package_root = src_root.rstrip("/") + "/repro/"
    if path.startswith(package_root):
        parts = path[len(package_root):].split("/")
        if parts[0] == "sim":
            return ("sim.resources" if parts[-1] == "resources.py"
                    else "sim.engine")
        if parts[0] in _PACKAGES:
            return parts[0]
        # repro/costs.py and friends: the constants every layer shares
        return "core"
    if path.startswith(driver_root.rstrip("/") + "/"):
        return "driver"
    return "ext.numpy" if "/numpy/" in path else "ext.other"


def rows_from_profile(profile) -> list[Row]:
    """Flatten ``cProfile.Profile.getstats()`` into :class:`Row` s."""
    rows = []
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            file, name = None, code
        else:
            file, name = code.co_filename, code.co_name
        callees = [(_key(sub.code), sub.callcount)
                   for sub in (entry.calls or ())]
        rows.append(Row(_key(code), file, name, entry.callcount,
                        entry.inlinetime, callees))
    return rows


def _key(code) -> object:
    return code if isinstance(code, str) else id(code)


def fold_layers(rows: Iterable[Row], src_root: str, driver_root: str
                ) -> dict[str, dict[str, float]]:
    """``{layer: {"self_s": seconds, "calls_in": calls}}`` over ``rows``.

    ``self_s`` sums the own time of the layer's functions; ``calls_in``
    counts calls whose caller lives in a *different* layer (a generator
    resumed by the DES engine counts once per resume — each is a real
    boundary crossing). Calls from outside the profile have no caller
    row and are not counted.
    """
    rows = list(rows)
    layer = {row.key: layer_of(row.file, row.name, src_root, driver_root)
             for row in rows}
    out = {name: {"self_s": 0.0, "calls_in": 0} for name in LAYERS}
    for row in rows:
        out[layer[row.key]]["self_s"] += row.self_s
        for callee, calls in row.callees:
            target = layer.get(callee)
            if target is not None and target != layer[row.key]:
                out[target]["calls_in"] += calls
    return out


def count_calls(rows: Iterable[Row], file_suffix: Optional[str],
                names: Iterable[str]) -> int:
    """Calls to functions called ``names``: Python functions defined in
    a file ending ``file_suffix``, or (``file_suffix=None``) C functions
    whose description contains one of ``names``."""
    names = tuple(names)
    total = 0
    for row in rows:
        if file_suffix is None:
            if row.file is None and any(n in row.name for n in names):
                total += row.calls
        elif row.file is not None and row.name in names and \
                row.file.replace(os.sep, "/").endswith(file_suffix):
            total += row.calls
    return total


# --------------------------------------------------------------------------
# Ledger arithmetic
# --------------------------------------------------------------------------

def gap(first: float, second: float) -> float:
    """Distance between two readings as a share of the first — what
    ``--selfcheck`` holds against a metric's bound."""
    if first == second:
        return 0.0
    return abs(second - first) / abs(first) if first else float("inf")
