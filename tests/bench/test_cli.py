"""Tests for the `python -m repro.bench` CLI."""

import pytest

from repro import costs
from repro.bench.__main__ import EXPERIMENTS, main


@pytest.fixture(autouse=True)
def _reset():
    yield
    costs.reset_scale()


def test_no_args_lists_experiments(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert "all" in out


def test_unknown_experiment_errors(capsys):
    assert main(["nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_quick_run_prints_table(capsys):
    assert main(["table1", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "== table1 ==" in out
    assert "scidp" in out
    assert "wall]" in out


def test_quick_fig9(capsys):
    assert main(["fig9", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "no analysis" in out


def test_quick_trace_export(tmp_path, capsys):
    from repro.obs.report import validate_trace
    from repro.obs.trace import load_trace

    path = tmp_path / "fig9.json"
    assert main(["fig9", "--quick", "--trace", str(path)]) == 0
    assert f"wrote {path}" in capsys.readouterr().out
    assert validate_trace(str(path)) == []
    doc = load_trace(str(path))
    assert any(e.get("cat") == "task.map" for e in doc["traceEvents"])
    assert doc["deviceMetrics"]


def test_trace_without_traceable_experiment(tmp_path, capsys):
    path = tmp_path / "t1.json"
    assert main(["table1", "--quick", "--trace", str(path)]) == 0
    assert "nothing written" in capsys.readouterr().out
    assert not path.exists()


def test_quick_simscale_prints_the_recorded_order(capsys):
    """One live row, for the event order ``tests/golden/sim.json`` pins
    at the quick size."""
    import json

    from tests.golden import load_golden

    assert main(["simscale", "--quick", "--json"]) == 0
    (experiment,) = json.loads(capsys.readouterr().out)["experiments"]
    assert experiment["columns"] == ["engine", "events", "wall s",
                                     "events/s"]
    golden = load_golden("sim")["simscale"]["quick"]
    ((engine, events, _wall, _rate),) = experiment["rows"]
    assert (engine, events) == ("live", golden["events"])
    assert f"order signature {golden['signature']} " in experiment["note"]
    assert f"sim clock {golden['sim_seconds']:.3f}s" in experiment["note"]


def test_every_experiment_has_quick_kwargs():
    for name, (_runner, _full, quick) in EXPERIMENTS.items():
        assert isinstance(quick, dict), name


def test_json_output_is_machine_readable(capsys):
    import json

    assert main(["table1", "--quick", "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)          # the whole stdout is one JSON document
    assert doc["quick"] is True
    (experiment,) = doc["experiments"]
    assert experiment["name"] == "table1"
    assert experiment["columns"]
    assert experiment["rows"]
    assert experiment["wall_seconds"] >= 0
