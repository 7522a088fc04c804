import contextlib
import dataclasses
import io
import json
import pathlib

import numpy as np
import pytest

from travmap import cli, pipeline, quality
from travmap.cli import main
from travmap.gridmap import CellState, empty_like, export_pgm, new_map
from travmap.scenario import EXAMPLE_SCENARIO, ScenarioError, load_scenario
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


#: The keys each ``simulate`` line carries from the ground truth, beside the frame's own fields.
_TRUTH_KEYS = {"camera_pose"}
_DETECTION_TRUTH_KEYS = {"agent_index", "depth", "world"}


def _frame_from_line(line: str) -> tuple[FrameObservation, tuple, list]:
    """The frame a line holds, and its truth: the camera pose and each detection's (walker, range, position)."""
    record = json.loads(line)
    assert set(record) == {f.name for f in dataclasses.fields(FrameObservation)} | _TRUTH_KEYS
    assert all(list(f) == sorted(FEATURE_DTYPE.names) for f in record["features"])
    assert all(type(f["feature_id"]) is int and type(f["visible"]) is bool for f in record["features"])
    rows = [tuple(f[name] for name in FEATURE_DTYPE.names) for f in record["features"]]
    boxes = [{k: v for k, v in d.items() if k not in _DETECTION_TRUTH_KEYS} for d in record["detections"]]
    frame = FrameObservation(
        record["frame_index"],
        record["timestamp"],
        record["angular_speed"],
        None if record["odometry"] is None else tuple(record["odometry"]),
        np.array(rows, dtype=FEATURE_DTYPE),
        [HumanDetection(**box) for box in boxes],
    )
    detected = [(d["agent_index"], d["depth"], tuple(d["world"])) for d in record["detections"]]
    return frame, tuple(record["camera_pose"]), detected


def test_simulate_lines_parse_back_to_frames(tmp_path, scene_file):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", scene_file, "--seed", "0", "--out", str(out)]) == 0
    lines = (out / "example_frames.jsonl").read_text().splitlines()
    frames, truth = simulate_sequence(dataclasses.replace(load_scenario(scene_file), rng_seed=0))
    assert len(lines) == len(frames)
    for line, frame in zip(lines, frames):
        k = frame.frame_index
        detected = [(agent, depth, truth.human_positions[k][agent]) for agent, depth in truth.detected[k]]
        assert _frame_from_line(line) == (frame, truth.camera_poses[k], detected), k
    assert sum(len(f.features) for f in frames) > 1000
    assert sum(f.features["visible"].sum() for f in frames) > 0 and sum(len(f.detections) for f in frames) > 0


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


def test_evaluate_shares_oracle_plans_across_maps(tmp_path, capsys, monkeypatch):
    gt = new_map(0, 0, 2, 2, 0.1)
    gt.cells[:, :] = int(CellState.TRAVERSABLE)
    walled = gt.copy()
    walled.cells[5:15, 10] = int(CellState.UNTRAVERSABLE)
    maps = {"walled": walled, "blank": empty_like(gt)}
    (tmp_path / "gt.pgm").write_bytes(export_pgm(gt))
    for name, m in maps.items():
        (tmp_path / f"{name}.pgm").write_bytes(export_pgm(m))
    queries = quality.sample_queries(gt, 5, 0, 1.0)
    expected = {name: quality.evaluate_map(m, gt, queries) for name, m in maps.items()}

    gt_plans = []
    plan = quality.plan_path

    def counting_plan_path(m, start, goal):
        gt_plans.append(np.array_equal(m.cells, gt.cells))
        return plan(m, start, goal)

    monkeypatch.setattr(quality, "plan_path", counting_plan_path)
    args = ["evaluate", "--ground-truth", str(tmp_path / "gt.pgm"), "--queries", "5", "--min-separation", "1.0"]
    args += ["--maps", *(str(tmp_path / f"{name}.pgm") for name in maps), "--out", str(tmp_path / "eval")]
    assert main(args) == 0
    assert sum(gt_plans) == 5
    printed = capsys.readouterr().out.splitlines()
    rows = [quality.ReportRow(name, "external", ev.score, ev.n_queries, ev.n_failed) for name, ev in expected.items()]
    assert printed[:2] == [f"{name}: score {ev.score:.4f} m ({ev.n_failed}/{ev.n_queries} failed)" for name, ev in expected.items()]
    assert (tmp_path / "eval" / "report.csv").read_text() == quality.QualityReport(rows).to_csv()
    assert expected["blank"].n_failed == 5


def test_evaluate_lists_maps_with_the_same_stem_as_two_rows(tmp_path, capsys):
    gt = new_map(0, 0, 2, 2, 0.1)
    gt.cells[:, :] = int(CellState.TRAVERSABLE)
    (tmp_path / "gt.pgm").write_bytes(export_pgm(gt))
    paths = [tmp_path / "a" / "cand.pgm", tmp_path / "b" / "cand.pgm"]
    for path, m in zip(paths, (gt, empty_like(gt))):
        path.parent.mkdir()
        path.write_bytes(export_pgm(m))
    args = ["evaluate", "--ground-truth", str(tmp_path / "gt.pgm"), "--queries", "5", "--min-separation", "1.0"]
    assert main([*args, "--maps", *map(str, paths), "--out", str(tmp_path / "eval")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "cand: score 0.0000 m (0/5 failed)"
    assert printed[1].startswith("cand: score ") and printed[1].endswith(" m (5/5 failed)")
    report = (tmp_path / "eval" / "report.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in report[1:]] == [["cand", "external"]] * 2


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


_BAD_INPUT_BOTH = [
    ("unknown-combo", ["--combos", "SfM,Nope"], "unknown module"),
    ("repeated-combo", ["--combos", "SfM,SfM,PfH+SfM"], "duplicate"),
    ("reordered-combo", ["--combos", "SfM+PfH,PfH+SfM"], "duplicate"),
    ("unranked-layer", ["--priority", "sfm,ho3"], "not covered"),
    ("unknown-layer", ["--priority", "lidar,sfm"], "unknown layers"),
    ("nan-gate", ["--gate", "nan"], "gate_px must be finite"),
    ("zero-gate", ["--gate", "0"], "gate_px must be finite and > 0"),
    ("negative-omega-max", ["--omega-max", "-1"], "omega_max must be finite and > 0"),
    ("negative-trail-width", ["--trail-half-width", "-1"], "trail_half_width must be finite and >= 0"),
    ("nan-passage-width", ["--passage-half-width", "nan"], "passage_half_width must be finite"),
    ("negative-seed", ["--seed", "-1"], "seed must be finite and >= 0"),
]
_BAD_INPUT_ABLATE = [
    ("negative-queries", ["--queries", "-1"], "n_queries must be finite and >= 1"),
    ("negative-min-separation", ["--min-separation", "-1"], "min_separation must be finite and >= 0"),
    ("unreachable-min-separation", ["--min-separation", "50"], "min_separation 50.0 m is longer than"),
    # Several scenes or seeds: a bad run anywhere in the lists stops every run.
    ("later-negative-seed", ["--seed", "0", "-1"], "seed must be finite and >= 0"),
    ("unknown-second-scenario", ["--scenario", "I", "Q"], "No such file or directory: 'Q'"),
    ("repeated-seed", ["--seed", "7", "0", "7"], "duplicate seed 7"),
    ("repeated-scene", ["--scenario", "I", "i"], "duplicate scene name I"),
    # I can meet 5 m, the 3 m x 3 m scene cannot: nothing of I's run may be written first.
    ("later-unreachable-min-separation", ["--scenario", "I", "small.ini", "--min-separation", "5"], "min_separation 5.0 m is longer than"),
]


@pytest.mark.parametrize(
    "command, options, message",
    [
        pytest.param(command, options, message, id=f"{name}-{command}")
        for name, options, message in _BAD_INPUT_BOTH
        for command in ("build", "ablate")
    ]
    + [pytest.param("ablate", options, message, id=f"{name}-ablate") for name, options, message in _BAD_INPUT_ABLATE],
)
def test_bad_input_fails_before_simulating(tmp_path, monkeypatch, no_simulation, command, options, message):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("small.ini").write_text(EXAMPLE_SCENARIO.replace("y_max = 6", "y_max = 3"))
    # A missing scenario file is an OSError; every other bad input is a ValueError.
    with pytest.raises(FileNotFoundError if "No such file" in message else ValueError, match=message):
        main([command, "--scenario", "I", "--out", str(tmp_path / "out"), *options])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["build", "ablate"])
def test_scene_name_cannot_leave_out_dir(tmp_path, no_simulation, command):
    scene = tmp_path / "scene.ini"
    scene.write_text(EXAMPLE_SCENARIO.replace("name = example", "name = ../escaped"))
    with pytest.raises(ScenarioError, match="name must be a plain file-name part"):
        main([command, "--scenario", str(scene), "--combos", "SfM", "--out", str(tmp_path / "run" / "out")])
    assert [p.name for p in tmp_path.iterdir()] == ["scene.ini"]


def test_ablate_rejects_a_robot_that_ends_before_time_zero(tmp_path, no_simulation):
    scene = tmp_path / "scene.ini"
    robot = "waypoints = 0, 0.25, 0.5, 0; 12, 0.25, 5.5, 0"
    scene.write_text(EXAMPLE_SCENARIO.replace(robot, "waypoints = -12, 0.25, 0.5, 0; -1, 0.25, 5.5, 0"))
    with pytest.raises(ScenarioError, match=r"^invalid scene: robot's last waypoint time -1.0 s is before t = 0"):
        main(["ablate", "--scenario", str(scene), "--out", str(tmp_path / "out")])
    assert [p.name for p in tmp_path.iterdir()] == ["scene.ini"]


def test_scene_name_cannot_split_report_rows(tmp_path, no_simulation):
    scene = tmp_path / "scene.ini"
    scene.write_text(EXAMPLE_SCENARIO.replace("name = example", "name = a,b"))
    with pytest.raises(ScenarioError, match="name must not hold ','"):
        main(["ablate", "--scenario", str(scene), "--combos", "SfM", "--out", str(tmp_path / "out")])
    assert [p.name for p in tmp_path.iterdir()] == ["scene.ini"]


@pytest.mark.parametrize(
    "options, message",
    [
        pytest.param(["--seed", "-1"], "seed must be finite and >= 0", id="negative-seed"),
        pytest.param(["--min-separation", "nan"], "min_separation must be finite", id="nan-min-separation"),
        pytest.param(["--min-separation", "-1"], "min_separation must be finite and >= 0", id="negative-min-separation"),
        pytest.param(["--queries", "0"], "n must be finite and >= 1", id="zero-queries"),
        pytest.param(["--origin-x", "nan"], "origin_x must be finite, got nan", id="nan-origin-x"),
        pytest.param(["--origin-x", "inf"], "origin_x must be finite, got inf", id="inf-origin-x"),
        pytest.param(["--origin-y", "nan"], "origin_y must be finite, got nan", id="nan-origin-y"),
        pytest.param(["--label", "a,b"], "--label must not hold ','", id="comma-label"),
        pytest.param(["--maps", 'a"b.pgm'], "the file stem of map a\"b.pgm must not hold", id="quote-map-stem"),
    ],
)
def test_evaluate_rejects_bad_query_settings(tmp_path, options, message):
    gt = new_map(0, 0, 2, 2, 0.1)
    gt.cells[:, :] = int(CellState.TRAVERSABLE)
    (tmp_path / "gt.pgm").write_bytes(export_pgm(gt))
    args = ["evaluate", "--ground-truth", str(tmp_path / "gt.pgm"), "--maps", str(tmp_path / "gt.pgm")]
    with pytest.raises(ValueError, match=message):
        main([*args, "--out", str(tmp_path / "eval"), *options])
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", ["build", "ablate"])
def test_cli_defaults_are_the_pipeline_defaults(command):
    params = cli._params_from_args(cli.build_parser().parse_args([command]))
    defaults = pipeline.PipelineParams()
    for f in dataclasses.fields(pipeline.PipelineParams):
        got, want = getattr(params, f.name), getattr(defaults, f.name)
        if f.name == "priority":
            got, want = got.order, want.order
        assert got == want, f.name


def test_build_and_ablate_write_identical_maps(tmp_path, scene_file):
    built, ablated = tmp_path / "build", tmp_path / "ablate"
    assert main(["build", "--scenario", scene_file, "--seed", "5", "--out", str(built)]) == 0
    assert main(["ablate", "--scenario", scene_file, "--seed", "5", "--out", str(ablated)]) == 0
    names = sorted(p.name for p in built.iterdir())
    assert len(names) == 9  # ground truth, 7 combinations, evidence log
    assert sorted(p.name for p in ablated.iterdir()) == sorted(names + ["report.csv"])
    for name in names:
        assert (built / name).read_bytes() == (ablated / name).read_bytes(), name


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One ``ablate`` over builtin I and the example scene at seeds 0 and 7: its directory and stdout."""
    root = tmp_path_factory.mktemp("sweep")
    scene = root / "scene.ini"
    scene.write_text(EXAMPLE_SCENARIO)
    out = root / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["ablate", "--scenario", "I", str(scene), "--seed", "0", "7", "--queries", "2", "--out", str(out)]) == 0
    return out, str(scene), stdout.getvalue()


def test_ablate_over_scenes_and_seeds_writes_single_runs(tmp_path, sweep):
    out, scene, _ = sweep
    assert sorted(p.name for p in out.iterdir()) == ["I", "example"]
    for source, name in (("I", "I"), (scene, "example")):
        assert sorted(p.name for p in (out / name).iterdir()) == ["seed0", "seed7"]
        for seed in (0, 7):
            single = tmp_path / f"{name}-{seed}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["ablate", "--scenario", source, "--seed", str(seed), "--queries", "2", "--out", str(single)]) == 0
            run = out / name / f"seed{seed}"
            names = sorted(p.name for p in single.iterdir())
            assert sorted(p.name for p in run.iterdir()) == names and "report.csv" in names
            for file_name in names:
                assert (run / file_name).read_bytes() == (single / file_name).read_bytes(), (name, seed, file_name)


def test_ablate_over_scenes_and_seeds_prints_the_matrix(sweep):
    out, _, stdout = sweep
    lines = stdout.splitlines()
    written = [f"maps and report written to {out / name / f'seed{seed}'}" for name in ("I", "example") for seed in (0, 7)]
    assert lines[:4] == written
    header = lines.index("mean score_m (lower is better) and solved/queries over seeds 0 7")
    assert lines[header + 1].split() == ["I", "example"]
    printed = [line.split() for line in lines[header + 2 :]]
    assert [row[0] for row in printed] == list(pipeline.COMBINATION_ORDER)
    for name, column in (("I", 1), ("example", 3)):
        reports = [(out / name / f"seed{seed}" / "report.csv").read_text().splitlines()[1:] for seed in (0, 7)]
        for row in printed:
            cells = [line.split(",") for report in reports for line in report if line.split(",")[0] == row[0]]
            assert len(cells) == 2 and all(cell[1] == name for cell in cells)
            assert float(row[column]) == pytest.approx(sum(float(cell[2]) for cell in cells) / 2, abs=5e-5 + 1e-6)
            solved = sum(int(cell[3]) - int(cell[4]) for cell in cells)
            assert row[column + 1] == f"{solved}/{sum(int(cell[3]) for cell in cells)}"


#: The README example with odometry noise, so that its simulation reads the seed.
_NOISY_EXAMPLE = EXAMPLE_SCENARIO.replace(
    "name = example", "name = noisy\nodom_sigma_trans = 0.005\nodom_sigma_rot = 0.0025"
)


@pytest.fixture(scope="module")
def noisy_sweep(tmp_path_factory):
    """One ``ablate`` over the example scene and its noisy copy at seeds 0 and 7.

    Returns the output directory, the noisy copy's path, and the scene name of each ``run_pipeline`` call.
    """
    root = tmp_path_factory.mktemp("noisy_sweep")
    sources = [root / "example.ini", root / "noisy.ini"]
    for path, text in zip(sources, (EXAMPLE_SCENARIO, _NOISY_EXAMPLE)):
        path.write_text(text)
    calls = []
    run_pipeline = pipeline.run_pipeline

    def counting_run_pipeline(scene, params=None):
        calls.append(scene.name)
        return run_pipeline(scene, params)

    out = root / "out"
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(pipeline, "run_pipeline", counting_run_pipeline)
        argv = ["ablate", "--scenario", *map(str, sources), "--seed", "0", "7", "--queries", "2", "--out", str(out)]
        assert main(argv) == 0
    return out, str(sources[1]), calls


def test_ablate_sweep_maps_a_noisy_scene_afresh_at_each_seed(tmp_path, noisy_sweep):
    out, scene, _ = noisy_sweep
    assert load_scenario(scene).noisy
    for seed in (0, 7):
        single = tmp_path / f"seed{seed}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ablate", "--scenario", scene, "--seed", str(seed), "--queries", "2", "--out", str(single)]) == 0
        run = out / "noisy" / f"seed{seed}"
        names = sorted(p.name for p in single.iterdir())
        assert sorted(p.name for p in run.iterdir()) == names and "evidence.log" in names
        for file_name in names:
            assert (run / file_name).read_bytes() == (single / file_name).read_bytes(), (seed, file_name)
    logs = [(out / "noisy" / f"seed{seed}" / "evidence.log").read_bytes() for seed in (0, 7)]
    assert logs[0] != logs[1]


def test_ablate_sweep_runs_the_pipeline_once_per_noiseless_scene(noisy_sweep):
    _, _, calls = noisy_sweep
    assert calls == ["example", "noisy", "noisy"]
