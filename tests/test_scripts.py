"""Smoke runs of the two scripts under ``scripts/``: ``output_digests.py`` and ``stage_times.py``.

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


def test_output_digests_closes_a_loop_and_repeats_its_posegraph_line(tmp_path, monkeypatch, capsys):
    from travmap.scenesim import builtin_config

    # The builtin perimeter loop at 5 fps: its last keyframe returns to its first.
    loop = "; ".join(f"{t!r}, {x!r}, {y!r}, {yaw!r}" for t, (x, y, yaw) in builtin_config("I").robot.waypoints)
    scene = tmp_path / "loop.ini"
    scene.write_text(f"""\
[bounds]
x_min = 0
y_min = 0
x_max = 3
y_max = 6

[scene]
name = loop
fps = 5

[obstacle.1]
center = 1.5, 3.0
half_extents = 0.3, 1.25
top_height = 0.7

[robot]
waypoints = {loop}
""")
    _run(monkeypatch, "output_digests.py", str(scene), str(scene))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12 and lines[:6] == lines[6:]
    reanchor, posegraph = lines[4].split(), lines[5].split()
    assert [reanchor[0], posegraph[0]] == ["reanchor", "posegraph"]
    assert reanchor[3] == posegraph[3] != "pairs=0"


def test_stage_times_prints_every_stage(tmp_path, monkeypatch, capsys):
    from travmap.scenario import EXAMPLE_SCENARIO

    scene = tmp_path / "scene.ini"
    scene.write_text(EXAMPLE_SCENARIO)
    _run(monkeypatch, "stage_times.py", str(scene), "--repeats", "1")
    lines = capsys.readouterr().out.splitlines()
    stages = ["simulate", "ground truth", "ingest", "rest of ingest", "poses", "optimize", "detections", "tracking"]
    stages += ["landmarks", "pass-between", "log", "queries", "oracle plans", "rebuild", "evaluate", "write"]
    stages += ["rest of pass", "pass"]
    assert [line[:24].strip() for line in lines[1:]] == stages
    assert all(float(line[24:33]) >= 0.0 for line in lines[1:])  # the example closes no loop: optimize reads 0.0
