"""The six examples run end to end, each in its own process.

Every example writes under ``Path(__file__).parent.parent /
"examples_out"``. Running a copy from ``tmp_path/examples/`` lands that
output under ``tmp_path``, so the tracked ``examples_out/`` is left
alone.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tests.oracles import decode_gif

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: example -> the files it writes under ``examples_out/``
OUTPUTS = {
    "cmip_comparison.py": ["cmip_surface_difference.gif"],
    "custom_format.py": [],
    "end_to_end_workflow.py": [],
    "nuwrf_visualization.py": [f"qr_{i:03d}_z0_48x48.png"
                               for i in range(32)],
    "quickstart.py": [],
    "sql_analysis.py": [],
}


def test_every_example_is_listed():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(OUTPUTS)


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_example_runs(name, tmp_path):
    script = tmp_path / "examples" / name
    script.parent.mkdir()
    shutil.copy(EXAMPLES / name, script)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = tmp_path / "examples_out"
    for written in OUTPUTS[name]:
        assert (out / written).stat().st_size > 0, written
        if written.endswith(".png"):
            assert (out / written).read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
        if written.endswith(".gif"):
            frames, _palette = decode_gif((out / written).read_bytes())
            assert frames
