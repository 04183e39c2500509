"""End-to-end animation phase: SciDP -> MapReduce -> animated GIFs."""

import numpy as np
import pytest

from repro import costs
from repro.mapreduce import JobConf
from repro.workloads.pipeline import animation_mapper, animation_reducer
from repro.workloads.solutions import build_world

from tests.oracles import decode_gif


@pytest.fixture(autouse=True)
def _reset():
    yield
    costs.reset_scale()


def run_animation_job(world, n_reducers=2):
    job = JobConf(
        name="animate",
        mapper=animation_mapper("QR"),
        reducer=animation_reducer(resolution=(24, 24)),
        input_format=world.scidp.input_format(variables=["QR"]),
        input_paths=[f"pfs://{world.nc_dir}"],
        n_reducers=n_reducers,
        output_path="/results/animate",
        task_startup=0.0,
    )
    proc = world.env.process(world.scidp.run_job(job))
    world.env.run()
    return proc.value


def test_one_gif_per_level_with_all_timesteps():
    world = build_world(n_timesteps=3, shape=(4, 24, 24))
    result = run_animation_job(world)
    gifs = {k: v for records in result.outputs.values()
            for k, v in records}
    assert sorted(gifs) == [0, 1, 2, 3]      # one animation per level
    for z, gif in gifs.items():
        frames, _pal = decode_gif(gif)
        assert len(frames) == 3              # one frame per timestamp
        assert frames[0].shape == (24, 24)
    assert result.counters.value("pipeline", "animations") == 4
    assert result.counters.value("pipeline", "animation_frames") == 12


def test_animation_frames_ordered_by_timestamp():
    """The brightest frame must land at its generating timestamp."""
    world = build_world(n_timesteps=2, shape=(2, 16, 16))
    # Overwrite the dataset with a hand-built pair of files where QR at
    # t=1 dwarfs t=0.
    import io
    from repro.formats import Dataset, scinc
    for path in world.manifest["files"]:
        world.pfs.unlink(path)
    for t, scale_v in enumerate((0.0, 1.0)):
        ds = Dataset()
        data = np.full((2, 16, 16), scale_v, dtype=np.float32)
        data[:, 0, 0] = 1.0  # pin the series range
        ds.create_variable("QR", ("z", "y", "x"), data,
                           chunk_shape=(1, 16, 16))
        buf = io.BytesIO()
        scinc.write(buf, ds)
        world.pfs.store_file(f"{world.nc_dir}/anim_{t}.nc",
                             buf.getvalue())
    world.manifest["files"] = [
        f"{world.nc_dir}/anim_0.nc", f"{world.nc_dir}/anim_1.nc"]

    result = run_animation_job(world)
    gifs = {k: v for records in result.outputs.values()
            for k, v in records}
    frames, _ = decode_gif(gifs[0])
    # Frame 0 (t=0) is dark except the pinned pixel; frame 1 is bright.
    assert frames[0][5, 5] < frames[1][5, 5]


def test_animation_charges_encode_time():
    world = build_world(n_timesteps=2, shape=(2, 16, 16))
    result = run_animation_job(world)
    reduce_stats = result.stats_for("reduce")
    assert any(s.phases.get("animate", 0) > 0 for s in reduce_stats)
