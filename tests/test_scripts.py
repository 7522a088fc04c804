"""Smoke runs of the experiment scripts under ``scripts/`` on small inputs."""

import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, script, *args):
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exit_.value.code == 0


def test_ablation_study_runs(tmp_path, monkeypatch, capsys):
    _run(monkeypatch, "ablation_study.py", "--scenarios", "I", "--queries", "2", "--out", str(tmp_path))
    assert (tmp_path / "I" / "report.csv").exists()
    assert "lower is better" in capsys.readouterr().out


def test_seed_sweep_runs(monkeypatch, capsys):
    _run(monkeypatch, "seed_sweep.py", "--scenario", "I", "--seeds", "1", "--queries", "2")
    out = capsys.readouterr().out
    assert "seed 0:" in out and "SfM+PfH+HO3: mean" in out


def test_output_digests_repeat(tmp_path, monkeypatch, capsys):
    from travmap.scenario import EXAMPLE_SCENARIO

    scene = tmp_path / "scene.ini"
    scene.write_text(EXAMPLE_SCENARIO)
    outputs = []
    for _ in range(2):
        _run(monkeypatch, "output_digests.py", str(scene))
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert [line.split()[0] for line in lines] == ["ablate", "ablate", "simulate", "noisy", "reanchor"]
    assert all(len(line.rsplit("sha256=", 1)[1]) == 64 for line in lines)
