"""The benchmark's hooks into travmap: what ``perfbench/tracer.py`` wraps and ``perfbench/workloads.py`` calls.

Both files are loaded as they are, so renaming a function they patch or a
parameter they set fails here rather than in a traced benchmark run.
"""

import dataclasses
import importlib.util
import pathlib

from travmap import cli, pipeline
from travmap.scenario import EXAMPLE_SCENARIO

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    tracer = _load("tracer")
    missing = [(owner, attr) for owner, attr, _key, _hook in tracer.TARGETS if attr not in owner.__dict__]
    assert not missing  # Tracer.install raises KeyError on these
    for _owner, _attr, _key, hook in tracer.TARGETS:
        assert hook is None or callable(getattr(tracer.Tracer, hook))


def test_traced_ablate_counts_and_restores(tmp_path):
    tracer = _load("tracer")
    originals = [owner.__dict__[attr] for owner, attr, _key, _hook in tracer.TARGETS]
    scene = tmp_path / "scene.ini"
    scene.write_text(EXAMPLE_SCENARIO)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(["ablate", "--scenario", str(scene), "--queries", "2", "--out", str(tmp_path / "out")]) == 0
    finally:
        t.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _key, _hook in tracer.TARGETS] == originals
    assert t.calls["pipeline.run_ablation"] == t.calls["pipeline.run_pipeline"] == 1
    assert t.calls["pipeline.build_combo_map"] == len(pipeline.COMBINATIONS)
    assert t.counts["scenesim.frames"] == 361


def test_traced_build_counts_pipeline_spans(tmp_path):
    tracer = _load("tracer")
    scene = tmp_path / "scene.ini"
    scene.write_text(EXAMPLE_SCENARIO)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(["build", "--scenario", str(scene), "--out", str(tmp_path / "out")]) == 0
    finally:
        t.uninstall()
    assert t.calls["pipeline.run_pipeline"] == 1
    assert t.calls["pipeline.build_combo_map"] == len(pipeline.COMBINATIONS)
    assert t.calls["scenesim.ground_truth_map"] == 1


def test_workload_parameters_exist():
    workloads = _load("workloads")
    assert set(workloads.COMBOS) == {pipeline.combo_label(layers) for layers in pipeline.COMBINATIONS}
    params = pipeline.PipelineParams(enable_closures=False)
    assert not params.enable_closures
    assert params.keyframe_stride >= 1 and params.closure_min_gap >= 1 and params.closure_radius > 0
    rebuild = dataclasses.replace(params.rebuild, robot_radius=0.25)
    assert rebuild.robot_radius == 0.25
