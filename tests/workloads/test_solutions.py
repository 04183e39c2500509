"""Tests for the five solution drivers and the pipeline pieces."""

import zlib

import numpy as np
import pytest

from repro import costs
from repro.rlang.png import decode_png
from repro.workloads.pipeline import (
    ANALYSES,
    binary_level_mapper,
    plot_seconds,
    text_level_mapper,
)
from repro.workloads.solutions import (
    SOLUTIONS,
    build_world,
    run_solution,
)
from tests.golden import load_golden


@pytest.fixture(autouse=True)
def _reset_scale():
    yield
    costs.reset_scale()


@pytest.fixture(scope="module")
def results():
    """Run every solution once on a tiny world (module-scoped: ~2s)."""
    out = {}
    for solution in SOLUTIONS:
        world = build_world(n_timesteps=2, shape=(4, 24, 24))
        out[solution] = run_solution(world, solution)
    costs.reset_scale()
    return out


def test_world_bytes_match_golden():
    """Every stored byte of a small seeded world, pinned by name: drift in
    synthesis, scinc encode or the text encoder fails here instead of as
    a 1e-9 sim-time mismatch three layers away."""
    golden = load_golden("nuwrf")
    spec = golden["world"]
    world = build_world(n_timesteps=spec["n_timesteps"],
                        shape=tuple(spec["shape"]), seed=spec["seed"],
                        variable=spec["variable"])
    assert world.manifest["stored_bytes"] == golden["stored_bytes"]
    assert world.manifest["files"] == list(golden["nc"])
    assert world.text_files == list(golden["csv"])
    for path, want in {**golden["nc"], **golden["csv"]}.items():
        data = world.pfs.read_file_sync(path)
        got = {"length": len(data), "crc32": zlib.crc32(data)}
        assert got == want, path


def test_all_solutions_plot_every_level(results):
    for name, res in results.items():
        assert res.frames == 2 * 4, name  # timesteps x levels


def test_table1_data_paths(results):
    """Table I: who converts, who copies, and how."""
    assert results["naive"].conversion_time_not_counted > 0
    assert results["vanilla"].conversion_time_not_counted > 0
    assert results["porthadoop"].conversion_time_not_counted > 0
    assert results["scihadoop"].conversion_time_not_counted == 0
    assert results["scidp"].conversion_time_not_counted == 0

    assert results["naive"].copy_time > 0          # sequential copy
    assert results["vanilla"].copy_time > 0        # parallel copy
    assert results["porthadoop"].copy_time == 0    # no copy
    assert results["scihadoop"].copy_time > 0      # parallel copy
    assert results["scidp"].copy_time == 0         # no copy


def test_scidp_is_fastest_and_naive_slowest(results):
    totals = {name: res.total_time for name, res in results.items()}
    assert totals["scidp"] == min(totals.values())
    assert totals["naive"] == max(totals.values())


def test_convert_dominates_for_text_solutions(results):
    """Fig. 7 shape: Convert >> Read for the read.table path; tiny for
    the binary path."""
    for name in ("vanilla", "porthadoop"):
        phases = results[name].phase_means
        assert phases["convert"] > phases["read"], name
        assert phases["convert"] > 5 * results["scidp"].phase_means[
            "convert"], name


def test_scidp_read_per_level_near_paper(results):
    """§V-D: 0.035 s per level."""
    read = results["scidp"].phase_means["read"]
    assert 0.01 <= read <= 0.12


def test_plot_time_similar_across_parallel_solutions(results):
    plots = [results[n].phase_means["plot"]
             for n in ("vanilla", "porthadoop", "scidp")]
    assert max(plots) / min(plots) < 1.3
    # Naive plots slightly faster (no contention, §V-D).
    assert results["naive"].phase_means["plot"] < min(plots)


def test_run_solution_rejects_unknown():
    world = build_world(n_timesteps=1, shape=(2, 16, 16))
    with pytest.raises(ValueError):
        run_solution(world, "magic")
    costs.reset_scale()


# -------------------------------------------------------------- pipeline
class FakeCtx:
    def __init__(self):
        self.records = []
        self.charges = {}

        class Counters:
            def increment(self, *a, **k):
                pass
        self.counters = Counters()

    def emit(self, key, value):
        self.records.append((key, value))

    def charge(self, seconds, phase="compute"):
        self.charges[phase] = self.charges.get(phase, 0) + seconds


def test_binary_mapper_produces_decodable_png():
    ctx = FakeCtx()
    level = np.random.default_rng(0).random((1, 16, 16)).astype(np.float32)
    binary_level_mapper("QR")(ctx, ("f", "QR", (0, 0, 0)), level)
    (key, png), = ctx.records
    assert key[-1] == "png"
    img = decode_png(png)
    assert img.shape[2] == 3
    assert ctx.charges["plot"] > 0
    assert ctx.charges["convert"] > 0


def test_text_mapper_matches_binary_mapper_pixels():
    """Both data paths must produce the identical image for the same
    level — the functional equivalence behind Fig. 5's comparison."""
    from repro.formats.text import encode_csv_block
    rng = np.random.default_rng(1)
    level = (rng.random((12, 12)) * np.float32(1)).astype(np.float32)

    ctx_a = FakeCtx()
    binary_level_mapper("QR")(ctx_a, "k", level[None, ...])
    ctx_b = FakeCtx()
    text_level_mapper("QR")(ctx_b, "k",
                            b"#vars:QR\n" + encode_csv_block(level))
    assert ctx_a.records[0][1] == ctx_b.records[0][1]


def test_analysis_highlight_adds_markers():
    ctx = FakeCtx()
    level = np.zeros((8, 8), dtype=np.float32)
    level[3, 4] = 5.0
    points, extra = ANALYSES["highlight"](ctx, "k", level)
    assert (3, 4) in points
    assert len(points) == 8 * 8 and extra == [] or len(points) <= 10
    assert ctx.charges.get("analysis", 0) > 0


def test_analysis_top_percent_emits_rows():
    ctx = FakeCtx()
    level = np.random.default_rng(2).random((20, 20)).astype(np.float32)
    _points, extra = ANALYSES["top1pct"](ctx, "k", level)
    (key, rows), = extra
    assert key[-1] == "top1pct"
    assert rows.shape == (4, 3)  # 400 cells -> top 1% = 4 rows
    best = rows[0]
    assert best[2] == pytest.approx(level.max())


def test_plot_seconds_uses_scale():
    costs.set_scale(100.0)
    scaled = plot_seconds(1000)
    costs.reset_scale()
    unscaled = plot_seconds(1000)
    assert scaled > unscaled


def test_anlys_highlight_close_to_imgonly():
    """Fig. 9: highlight ~= no analysis; top1% costs more."""
    world = build_world(n_timesteps=2, shape=(4, 24, 24))
    base = run_solution(world, "scidp", analysis="none")
    world = build_world(n_timesteps=2, shape=(4, 24, 24))
    highlight = run_solution(world, "scidp", analysis="highlight")
    world = build_world(n_timesteps=2, shape=(4, 24, 24))
    top = run_solution(world, "scidp", analysis="top1pct")
    costs.reset_scale()
    assert highlight.total_time < 1.35 * base.total_time
    assert top.total_time > highlight.total_time
