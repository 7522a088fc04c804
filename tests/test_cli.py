import dataclasses
import json

import numpy as np
import pytest

from travmap import pipeline
from travmap.cli import main
from travmap.gridmap import CellState, export_pgm, new_map
from travmap.scenario import EXAMPLE_SCENARIO, load_scenario
from travmap.scenesim import FEATURE_DTYPE, FrameObservation, HumanDetection, simulate_sequence


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "scene.ini"
    path.write_text(EXAMPLE_SCENARIO)
    return str(path)


def test_simulate_dumps_frames(tmp_path, scene_file, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", scene_file, "--out", str(out)]) == 0
    dump = out / "example_frames.jsonl"
    lines = dump.read_text().splitlines()
    assert len(lines) == 361  # 12 s at 30 fps, inclusive
    first = json.loads(lines[0])
    assert first["frame_index"] == 0
    assert "features" in first and "detections" in first


def _frame_from_line(line: str) -> FrameObservation:
    record = json.loads(line)
    assert set(record) == {f.name for f in dataclasses.fields(FrameObservation)}
    assert all(list(f) == sorted(FEATURE_DTYPE.names) for f in record["features"])
    assert all(type(f["feature_id"]) is int and type(f["visible"]) is bool for f in record["features"])
    rows = [tuple(f[name] for name in FEATURE_DTYPE.names) for f in record["features"]]
    return FrameObservation(
        record["frame_index"],
        record["timestamp"],
        tuple(record["camera_pose"]),
        record["angular_speed"],
        None if record["odometry"] is None else tuple(record["odometry"]),
        np.array(rows, dtype=FEATURE_DTYPE).view(np.recarray),
        [HumanDetection(**dict(d, world=tuple(d["world"]))) for d in record["detections"]],
    )


def test_simulate_lines_parse_back_to_frames(tmp_path, scene_file):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", scene_file, "--seed", "0", "--out", str(out)]) == 0
    lines = (out / "example_frames.jsonl").read_text().splitlines()
    frames, _ = simulate_sequence(dataclasses.replace(load_scenario(scene_file), rng_seed=0))
    assert len(lines) == len(frames)
    for line, frame in zip(lines, frames):
        assert _frame_from_line(line) == frame, frame.frame_index
    assert sum(len(f.features) for f in frames) > 1000
    assert sum(f.features.visible.sum() for f in frames) > 0 and sum(len(f.detections) for f in frames) > 0


def test_build_writes_maps(tmp_path, scene_file):
    out = tmp_path / "maps"
    assert main(["build", "--scenario", scene_file, "--out", str(out), "--combos", "SfM,PfH"]) == 0
    assert (out / "ground_truth.pgm").exists()
    assert (out / "example_SfM.pgm").exists()
    assert (out / "example_PfH.pgm").exists()
    assert (out / "evidence.log").exists()
    data = (out / "ground_truth.pgm").read_bytes()
    assert data.startswith(b"P5\n30 60\n255\n")


def test_evaluate_standalone(tmp_path, capsys):
    gt = new_map(0, 0, 2, 2, 0.1)
    gt.cells[:, :] = int(CellState.TRAVERSABLE)
    (tmp_path / "gt.pgm").write_bytes(export_pgm(gt))
    (tmp_path / "cand.pgm").write_bytes(export_pgm(gt))
    out = tmp_path / "eval"
    rc = main(
        [
            "evaluate",
            "--ground-truth", str(tmp_path / "gt.pgm"),
            "--maps", str(tmp_path / "cand.pgm"),
            "--queries", "5",
            "--min-separation", "1.0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "combination,scenario,score_m,n_queries,n_failed"
    assert report[1].startswith("cand,external,0.000000,5,0")


def test_ablate_report_shape(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(
        [
            "ablate",
            "--scenario", "I",
            "--seed", "3",
            "--queries", "6",
            "--combos", "SfM+PfH,SfM",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "SfM+PfH"
    assert lines[2].split(",")[0] == "SfM"
    assert (out / "I_SfM+PfH.pgm").exists()
    assert (out / "I_SfM.pgm").exists()
    assert (out / "ground_truth.pgm").exists()
    assert (out / "evidence.log").exists()


def test_ablate_rejects_bad_combo(tmp_path):
    with pytest.raises(ValueError):
        main(["ablate", "--scenario", "I", "--combos", "SfM+Nope", "--out", str(tmp_path)])


@pytest.fixture()
def no_simulation(monkeypatch):
    """Make any pipeline run fail, so a test sees input errors raised before simulating."""

    def refuse(*args, **kwargs):
        raise AssertionError("the pipeline ran before the input was checked")

    monkeypatch.setattr(pipeline, "run_pipeline", refuse)


@pytest.mark.parametrize("command", ["build", "ablate"])
@pytest.mark.parametrize(
    "options, message",
    [
        (["--combos", "SfM,Nope"], "unknown module"),
        (["--combos", "SfM,SfM,PfH+SfM"], "duplicate"),
        (["--combos", "SfM+PfH,PfH+SfM"], "duplicate"),
        (["--priority", "sfm,ho3"], "not covered"),
        (["--priority", "lidar,sfm"], "unknown layers"),
    ],
    ids=["unknown-combo", "repeated-combo", "reordered-combo", "unranked-layer", "unknown-layer"],
)
def test_bad_input_fails_before_simulating(tmp_path, no_simulation, command, options, message):
    with pytest.raises(ValueError, match=message):
        main([command, "--scenario", "I", "--out", str(tmp_path / "out"), *options])
    assert not (tmp_path / "out").exists()


def test_build_and_ablate_write_identical_maps(tmp_path, scene_file):
    built, ablated = tmp_path / "build", tmp_path / "ablate"
    assert main(["build", "--scenario", scene_file, "--seed", "5", "--out", str(built)]) == 0
    assert main(["ablate", "--scenario", scene_file, "--seed", "5", "--out", str(ablated)]) == 0
    names = sorted(p.name for p in built.iterdir())
    assert len(names) == 9  # ground truth, 7 combinations, evidence log
    assert sorted(p.name for p in ablated.iterdir()) == sorted(names + ["report.csv"])
    for name in names:
        assert (built / name).read_bytes() == (ablated / name).read_bytes(), name
