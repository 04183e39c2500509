"""Unit tests of the ledger's own arithmetic (``pytest benchmarks/ledger``;
not part of tier-1). Synthetic profiles only — no workload runs here.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fold  # noqa: E402
import run  # noqa: E402

SRC = "/checkout/src"
DRIVER = "/checkout/benchmarks/ledger"


def layer(file, name="f"):
    return fold.layer_of(file, name, SRC, DRIVER)


def test_files_fold_into_their_package_layer():
    assert layer(f"{SRC}/repro/mapreduce/task.py") == "mapreduce"
    assert layer(f"{SRC}/repro/rlang/_legacy.py") == "rlang"
    assert layer(f"{SRC}/repro/formats/scinc/io.py") == "formats"
    assert layer(f"{SRC}/repro/sim/engine.py") == "sim.engine"
    assert layer(f"{SRC}/repro/sim/pipeline.py") == "sim.engine"
    assert layer(f"{SRC}/repro/sim/resources.py") == "sim.resources"
    assert layer(f"{SRC}/repro/costs.py") == "core"
    assert layer(f"{DRIVER}/suite.py") == "driver"


def test_foreign_code_folds_into_ext_buckets():
    assert layer("/usr/lib/python3.11/json/encoder.py") == "ext.other"
    assert layer("/site-packages/numpy/_core/defchararray.py") == "ext.numpy"
    # a checkout elsewhere that happens to contain /repro/ is not ours
    assert layer("/elsewhere/repro/sim/engine.py") == "ext.other"
    assert layer(None, "<built-in method zlib.compress>") == "ext.zlib"
    assert layer(None, "<method 'astype' of 'numpy.ndarray' objects>") \
        == "ext.numpy"
    assert layer(None, "<built-in method builtins.len>") == "ext.other"


def synthetic_rows():
    """driver -> mapreduce.run (x3) -> sim.timeout (x12), zlib (x3);
    mapreduce.run also calls a mapreduce helper (same layer, x30)."""
    engine = f"{SRC}/repro/sim/engine.py"
    task = f"{SRC}/repro/mapreduce/task.py"
    return [
        fold.Row("loop", f"{DRIVER}/child.py", "run", 1, 0.5,
                 [("mr.run", 3)]),
        fold.Row("mr.run", task, "run", 3, 2.0,
                 [("mr.emit", 30), ("sim.timeout", 12), ("zlib", 3)]),
        fold.Row("mr.emit", task, "emit", 30, 0.25, []),
        fold.Row("sim.timeout", engine, "timeout", 12, 1.0, []),
        fold.Row("sim.event", engine, "event", 5, 0.5,
                 [("sim.timeout", 0)]),
        fold.Row("zlib", None, "<built-in method zlib.compress>", 3,
                 4.0, []),
    ]


def test_fold_sums_self_time_per_layer():
    layers = fold.fold_layers(synthetic_rows(), SRC, DRIVER)
    assert layers["mapreduce"]["self_s"] == 2.25
    assert layers["sim.engine"]["self_s"] == 1.5
    assert layers["ext.zlib"]["self_s"] == 4.0
    assert layers["driver"]["self_s"] == 0.5
    assert layers["rlang"] == {"self_s": 0.0, "calls_in": 0}
    assert set(layers) == set(fold.LAYERS)


def test_calls_in_counts_only_edges_that_cross_a_layer():
    layers = fold.fold_layers(synthetic_rows(), SRC, DRIVER)
    assert layers["mapreduce"]["calls_in"] == 3      # not the 30 internal
    assert layers["sim.engine"]["calls_in"] == 12
    assert layers["ext.zlib"]["calls_in"] == 3
    assert layers["driver"]["calls_in"] == 0         # root has no caller


def test_count_calls_by_file_and_name_or_c_description():
    rows = synthetic_rows()
    assert fold.count_calls(rows, "repro/sim/engine.py",
                            ("timeout", "event", "process")) == 17
    # same function name in another layer's file is not counted
    assert fold.count_calls(rows, "repro/sim/engine.py", ("run",)) == 0
    assert fold.count_calls(rows, None, ("zlib.compress",)) == 3
    assert fold.count_calls(rows, None, ("zlib.decompress",)) == 0


def test_rows_from_a_real_profile_keep_caller_edges():
    import cProfile
    import zlib

    def inner():
        return zlib.compress(b"x" * 100)

    def outer():
        return [inner() for _ in range(4)]

    profile = cProfile.Profile()
    profile.enable()
    outer()
    profile.disable()
    rows = fold.rows_from_profile(profile)
    by_name = {row.name: row for row in rows}
    assert by_name["inner"].calls == 4
    edges = dict(by_name["inner"].callees)
    assert edges["<built-in method zlib.compress>"] == 4
    layers = fold.fold_layers(rows, SRC, HERE)
    assert layers["ext.zlib"]["calls_in"] == 4


def test_gap_is_relative_to_the_first_reading():
    assert fold.gap(10.0, 11.0) == pytest.approx(0.10)
    assert fold.gap(10.0, 9.0) == pytest.approx(0.10)
    assert fold.gap(0.0, 0.0) == 0.0
    assert fold.gap(0.0, 1.0) == float("inf")
    # the 10 % bound admits 10.9 after 10.0 and refuses 11.2
    assert fold.gap(10.0, 10.9) <= 0.10 < fold.gap(10.0, 11.2)


def test_iteration_count_follows_seconds():
    assert run.iterations_for(run.RUN_SECONDS) == run.ITERATIONS
    assert run.iterations_for(2 * run.RUN_SECONDS) == 2 * run.ITERATIONS
    assert run.iterations_for(0.01) == 2


def test_committed_contract_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    assert committed == run.contract()
    names = [m["name"] for m in committed["end_to_end"]
             + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert len(committed["per_layer"]) <= 128
    # ISSUE 11: every end-to-end metric, setup_s too, is held to 10 %
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert bounds["setup_s"] == 0.10
    assert set(bounds.values()) == {0.10}
