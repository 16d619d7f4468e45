"""Smoke tests for the scripts under ``scripts/``, so they cannot rot."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_ablation_sweep(tmp_path, capsys):
    ablation = load_script("run_ablation")
    snap = tmp_path / "ablation_fixture.json"
    ablation.save_snapshot(ablation.fixture_snapshot(), snap)
    out = tmp_path / "sweep.csv"
    rows = ablation.run_sweep(snap, out, "0.01,0.1", "0.3,0.5", 1)
    assert out.exists()
    assert [(float(r["alpha"]), float(r["beta"])) for r in rows] == [
        (0.01, 0.3), (0.01, 0.5), (0.1, 0.3), (0.1, 0.5)]
    for r in rows:
        assert int(r["output"]) > 0
        assert float(r["gap_bp"]) >= 0
    ablation.show("sweep", rows)
    assert "alpha" in capsys.readouterr().out
