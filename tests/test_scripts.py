"""Smoke run of ``scripts/output_digests.py``, the one script under ``scripts/``.

Ablations over several scenes and seeds are ``travmap ablate`` runs; ``test_cli.py`` covers them.
"""

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
    assert [line.split()[0] for line in lines] == ["ablate", "ablate", "simulate", "noisy", "reanchor", "posegraph"]
    assert all(len(line.rsplit("sha256=", 1)[1]) == 64 for line in lines)
