import collections
import dataclasses
import math

import numpy as np
import pytest
from _oracles import ingest_per_frame

from travmap import pipeline, quality
from travmap.evidence import (
    Ho3Evidence,
    OcclusionClass,
    PfhEvidence,
    RebuildParams,
    ScaleCalibration,
    SfmEvidence,
    classify_occlusion,
    export_evidence_log,
    landmark_worlds,
    pose_table,
)
from travmap.gridmap import CellState, LayerPriority, export_pgm
from travmap.posegraph import EdgeKind, Pose2, PoseGraph
from travmap.quality import plan_path
from travmap.scenario import EXAMPLE_SCENARIO, parse_scenario
from travmap.scenesim import (
    FEATURE_DTYPE,
    CameraIntrinsics,
    FrameObservation,
    HumanDetection,
    builtin_config,
    ground_truth_map,
)


def test_combo_label_roundtrip():
    for layers in pipeline.COMBINATIONS:
        assert pipeline.combo_layers(pipeline.combo_label(layers)) == layers
    assert pipeline.combo_layers("pfh+sfm") == ("sfm", "pfh")
    with pytest.raises(ValueError):
        pipeline.combo_layers("SfM+SfM")
    with pytest.raises(ValueError):
        pipeline.combo_layers("Lidar")


def test_calibration_recovers_unit_scale(i_result):
    assert abs(i_result.calibration.k - 1.0) <= 1e-9


def test_landmarks_match_true_feature_positions(i_result):
    landmarks = i_result.store.landmarks
    worlds = landmark_worlds(landmarks.values(), pose_table(i_result.graph.snapshot()))
    for fid, (wx, wy) in zip(landmarks, worlds.tolist()):
        tx, ty, _ = i_result.truth.feature_points[fid]
        assert math.hypot(wx - tx, wy - ty) < 1e-9


def test_loop_closure_fires_and_emits_event(i_result):
    closures = [e for e in i_result.graph.edges if e.kind.value == "loop_closure"]
    assert len(closures) >= 1
    assert len(i_result.events) == len(closures)
    ids = [e.event_id for e in i_result.events]
    assert ids == sorted(ids)


@pytest.mark.parametrize("stride", [10, 5])
@pytest.mark.parametrize("kind", ["I", "L", "T"])
def test_ingest_closes_the_oldest_oracle_pair_once_per_gap(ingest_shared, kind, stride):
    params = pipeline.PipelineParams(keyframe_stride=stride)
    res, truth = ingest_shared(builtin_config(kind), params)
    oracle = pipeline.truth_closures(truth, params)
    edges = [e for e in res.graph.edges if e.kind is EdgeKind.LOOP_CLOSURE]
    assert edges and len(res.events) == len(edges)
    for e in edges:
        # The oracle lists pairs by newer, then older keyframe: the first with newer e.j is the oldest.
        assert next(pair for pair in oracle if pair[1] == e.j) == (e.i, e.j, e.rel)
    newer = [e.j for e in edges]
    assert all(b - a >= params.closure_min_gap for a, b in zip(newer, newer[1:]))
    if stride == 10:
        assert [(e.i, e.j, e.rel) for e in edges] == oracle[:1] and oracle[0][:2] == (0, 175)


def test_turning_frames_contribute_no_trail_evidence(i_result):
    keep = i_result.keep_mask
    turning = {f.frame_index for f, k in zip(i_result.frames, keep) if not k}
    assert turning  # the loop has corners
    for diag in i_result.occlusion_diags:
        assert diag.frame_index not in turning
    for diag in i_result.pair_diags:
        assert diag.frame_index not in turning


def test_confirmed_tracks_only(i_result):
    # every pass-between record references a track that existed and was confirmed
    track_ids = {t.track_id for t in i_result.tracks}
    for rec in i_result.store.records:
        if isinstance(rec, PfhEvidence):
            assert rec.track_id in track_ids


def test_build_combo_map_sfm_blocks_tables(i_result):
    m = pipeline.build_combo_map(i_result, ("sfm",))
    gt = ground_truth_map(i_result.config)
    # landmark disks are inflated table edges: blocked cells should be a
    # subset of the ground-truth blocked region (noiseless anchoring)
    blocked = np.argwhere(m.cells == int(CellState.UNTRAVERSABLE))
    assert len(blocked) > 100
    for j, i in blocked[:: max(1, len(blocked) // 50)]:
        assert gt.cells[j, i] == int(CellState.UNTRAVERSABLE)
    assert not (m.cells == int(CellState.TRAVERSABLE)).any()


def test_trail_map_covers_walkway(i_result):
    m = pipeline.build_combo_map(i_result, ("pfh",))
    gt = ground_truth_map(i_result.config)
    free = (m.cells == int(CellState.TRAVERSABLE)) & (gt.cells == int(CellState.TRAVERSABLE))
    assert free.sum() > 30  # the trail lights up a usable share of the corridor


def test_build_combo_map_defaults_to_the_runs_parameters(run_shared):
    params = pipeline.PipelineParams(
        priority=LayerPriority(("ho3", "sfm", "pfh")), rebuild=RebuildParams(trail_half_width=0.15)
    )
    res = run_shared(parse_scenario(EXAMPLE_SCENARIO), params)
    assert res.params is params
    rebuild = dataclasses.replace(params.rebuild, robot_radius=res.config.robot_radius)
    for layers in pipeline.COMBINATIONS:
        explicit = pipeline.build_combo_map(res, layers, priority=params.priority, params=rebuild)
        assert np.array_equal(pipeline.build_combo_map(res, layers).cells, explicit.cells), layers


def test_parse_combos_normalises_and_needs_one():
    trails_on_top = LayerPriority(("sfm", "ho3", "pfh"))
    assert pipeline.parse_combos(["PfH+SfM", "HO3"], trails_on_top) == (("sfm", "pfh"), ("ho3",))
    with pytest.raises(ValueError, match="at least one"):
        pipeline.parse_combos([], trails_on_top)


def test_run_ablation_outputs(tmp_path):
    combos = ("SfM+PfH", "SfM")
    cfg = pipeline.RunConfig(scenario="I", combos=combos, seed=2, out_dir=str(tmp_path), n_queries=5)
    out = pipeline.run_ablation(cfg)
    assert {r.combination for r in out.report.rows} == set(combos)
    assert all(r.n_queries == 5 for r in out.report.rows)
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "I_SfM+PfH.pgm").exists()
    # paired evaluation: both combos scored on identical queries
    assert out.report.rows[0].scenario == "I"
    assert len(out.queries) == 5


def test_run_ablation_deterministic_in_memory():
    cfg = pipeline.RunConfig(scenario="I", combos=("SfM+PfH",), seed=9, n_queries=5)
    a = pipeline.run_ablation(cfg)
    b = pipeline.run_ablation(cfg)
    assert a.report.to_csv() == b.report.to_csv()
    for label in a.maps:
        assert export_pgm(a.maps[label]) == export_pgm(b.maps[label])


def test_run_ablation_plans_each_oracle_path_once(monkeypatch):
    grids = []
    plan = quality.plan_path

    def counting_plan_path(m, start, goal):
        grids.append(m)
        return plan(m, start, goal)

    monkeypatch.setattr(quality, "plan_path", counting_plan_path)
    cfg = pipeline.RunConfig(scenario="I", seed=4, n_queries=6)
    out = pipeline.run_ablation(cfg)
    assert len(out.maps) == len(pipeline.COMBINATIONS)
    assert sum(m is out.ground_truth for m in grids) == cfg.n_queries
    assert len(grids) == cfg.n_queries * (1 + len(pipeline.COMBINATIONS))


def test_sfm_alone_on_obstacle_free_scene_pays_oracle_cost(tmp_path):
    text = """\
[bounds]
x_min = 0
y_min = 0
x_max = 3
y_max = 6

[scene]
name = open

[robot]
waypoints = 0, 0.25, 0.5, 0; 10, 0.25, 5.5, 0
"""
    path = tmp_path / "open.ini"
    path.write_text(text)
    out = pipeline.run_ablation(pipeline.RunConfig(scenario=str(path), combos=("SfM",), seed=1, n_queries=5))
    m = out.maps["SfM"]
    assert (m.cells == int(CellState.UNKNOWN)).all()  # nothing to map without features
    row = out.report.rows[0]
    assert row.n_failed == 5
    oracle_costs = [plan_path(out.ground_truth, q.start, q.goal).cost for q in out.queries]
    assert row.score == pytest.approx(float(np.mean(oracle_costs)))


@pytest.mark.parametrize("scene", [parse_scenario(EXAMPLE_SCENARIO), builtin_config("I")], ids=["example", "I"])
def test_non_default_keyframe_stride(run_shared, scene):
    stride = 7
    res = run_shared(scene, pipeline.PipelineParams(keyframe_stride=stride))
    assert len(res.graph.nodes) == (len(res.frames) - 1) // stride + 1
    landmarks = res.store.landmarks
    assert landmarks
    worlds = landmark_worlds(landmarks.values(), pose_table(res.graph.snapshot()))
    for (fid, lm), (wx, wy) in zip(landmarks.items(), worlds.tolist()):
        assert lm.keyframe_id in res.graph.nodes
        # noiseless odometry: a landmark lands on its feature only if keyframe k is frame k * stride
        tx, ty, _ = res.truth.feature_points[fid]
        assert math.hypot(wx - tx, wy - ty) < 1e-9
    for rec in res.store.records:
        if isinstance(rec, PfhEvidence):
            assert rec.keyframe_id in res.graph.nodes
        elif isinstance(rec, Ho3Evidence):
            assert rec.front_id in landmarks and rec.behind_id in landmarks
    gt = ground_truth_map(scene)
    for layers in pipeline.COMBINATIONS:
        assert pipeline.build_combo_map(res, layers).same_geometry(gt)


def test_example_scene_detects_its_walker(run_shared):
    res = run_shared(parse_scenario(EXAMPLE_SCENARIO))
    assert any(frame.detections for frame in res.frames)
    assert any(isinstance(rec, PfhEvidence) for rec in res.store.records)


def test_example_scene_without_camera_section_detects_its_walker(run_shared):
    # The camera defaults alone keep the head of a walker 1.45 m away in the image.
    assert "[camera]" not in EXAMPLE_SCENARIO
    config = parse_scenario(EXAMPLE_SCENARIO)
    assert config.intrinsics == CameraIntrinsics()
    res = run_shared(config)
    assert any(frame.detections for frame in res.frames)


@pytest.mark.parametrize("kind, max_false_free", [("I", 0), ("L", 4), ("T", 0)])
def test_feature_obstacles_outrank_human_evidence(run_shared, kind, max_false_free):
    """With SfM on top, human evidence paints no robot-radius ring free, and no SfM map routes a user through one."""
    res = run_shared(builtin_config(kind))  # zero noise: the seed draws only the queries
    gt = ground_truth_map(res.config)
    blocked = gt.cells != int(CellState.TRAVERSABLE)
    labels = ("SfM+PfH+HO3", "SfM+PfH", "SfM+HO3")
    maps = {label: pipeline.build_combo_map(res, pipeline.combo_layers(label)) for label in labels}
    assert ((maps["SfM+PfH+HO3"].cells == int(CellState.TRAVERSABLE)) & blocked).sum() <= max_false_free
    solved = 0
    for seed in range(10):
        for q in quality.sample_queries(gt, 20, seed, 2.0):
            for label, m in maps.items():
                user = plan_path(m, q.start, q.goal)
                if user is not None:
                    solved += 1
                    assert not any(blocked[j, i] for i, j in user.cells), (label, seed, q)
    assert solved > 0


@pytest.mark.parametrize("kind, bounds", [("I", (0, 0, 0)), ("L", (4, 4, 6)), ("T", (0, 0, 0))], ids=["I", "L", "T"])
def test_sfm_on_top_paints_fewer_blocked_cells_free(run_shared, kind, bounds):
    """The run's order keeps fused false-free cells under ``bounds``; with trails on top each SfM map has more."""
    res = run_shared(builtin_config(kind))
    blocked = ground_truth_map(res.config).cells != int(CellState.TRAVERSABLE)
    trails_on_top = LayerPriority(("sfm", "ho3", "pfh"))
    for label, bound in zip(("SfM+PfH+HO3", "SfM+PfH", "SfM+HO3"), bounds):
        layers = pipeline.combo_layers(label)
        maps = [pipeline.build_combo_map(res, layers, priority) for priority in (res.params.priority, trails_on_top)]
        run_order, other = (int(((m.cells == int(CellState.TRAVERSABLE)) & blocked).sum()) for m in maps)
        assert run_order <= bound and run_order < other, (label, run_order, other)


_NOISY_T = dataclasses.replace(builtin_config("T"), rng_seed=3, odom_sigma_trans=0.005, odom_sigma_rot=0.0025)


@pytest.mark.parametrize(
    "scene",
    [builtin_config("I"), builtin_config("L"), builtin_config("T"), _NOISY_T, parse_scenario(EXAMPLE_SCENARIO)],
    ids=["I", "L", "T", "T-noisy", "example"],
)
def test_each_landmark_is_logged_once_in_creation_order(run_shared, scene):
    # Logging SfM once per landmark loses nothing: every feature visible at a
    # keyframe has its one record, placed where it was first seen.
    res = run_shared(scene)
    stride = res.params.keyframe_stride
    seen = [f.features["feature_id"][f.features["visible"]].tolist() for f in res.frames[::stride]]
    first_seen = list(dict.fromkeys(fid for ids in seen for fid in ids))
    sfm_ids = [r.feature_id for r in res.store.records if isinstance(r, SfmEvidence)]
    assert sfm_ids == list(res.store.landmarks) == first_seen


def test_a_noisy_run_holds_plain_floats(run_shared):
    # Noisy odometry once held numpy scalars, which reached the graph, the
    # trails and the diagnostics, and made their repr depend on numpy's.
    scene = dataclasses.replace(builtin_config("I"), rng_seed=3, odom_sigma_trans=0.005, odom_sigma_rot=0.0025)
    res = run_shared(scene)
    groups = {
        "odometry": [v for frame in res.frames[1:] for v in frame.odometry],
        "graph poses": [v for pose in res.graph.nodes.values() for v in (pose.x, pose.y, pose.theta)],
        "PfH offsets": [v for rec in res.store.records if isinstance(rec, PfhEvidence) for v in rec.offset],
        "position estimates": [v for diag in res.position_diags for v in (*diag.estimated, diag.estimated_depth)],
    }
    for name, values in groups.items():
        assert values and {type(v) for v in values} == {float}, name


@pytest.mark.parametrize("kind", ["L", "T"])
def test_diagnostics_name_the_walker_they_measure(run_shared, kind):
    """On the two-walker scenes, each diagnostic row agrees with the simulated walker it names."""
    res = run_shared(builtin_config(kind))
    # Each detection's walker, true position and range, by frame and walker.
    detection = {
        (fi, agent_index): (res.truth.human_positions[fi][agent_index], depth)
        for fi, detected in enumerate(res.truth.detected)
        for agent_index, depth in detected
    }
    feature_depth = {
        (f.frame_index, fid): depth
        for f in res.frames
        for fid, depth in zip(f.features["feature_id"].tolist(), f.features["depth"].tolist())
    }
    walker = {(d.frame_index, d.track_id): d.agent_index for d in res.position_diags}
    assert len(walker) == len(res.position_diags)  # one row per frame and track
    assert set(walker.values()) == {0, 1}
    for d in res.position_diags:
        assert (d.true_world, d.true_depth) == detection[(d.frame_index, d.agent_index)]

    assert {d.agent_index for d in res.occlusion_diags} == {0, 1}
    for d in res.occlusion_diags:
        assert walker[(d.frame_index, d.track_id)] == d.agent_index
        in_front = feature_depth[(d.frame_index, d.feature_id)] < detection[(d.frame_index, d.agent_index)][1]
        assert d.label is (OcclusionClass.FRONT if in_front else OcclusionClass.BEHIND), d

    assert res.pair_diags
    for p in res.pair_diags:
        assert p.front_depth < p.human_depth < p.behind_depth
        fi = p.frame_index
        human_depth = detection[(fi, walker[(fi, p.track_id)])][1]
        assert feature_depth[(fi, p.front_id)] < human_depth < feature_depth[(fi, p.behind_id)], p


@pytest.mark.parametrize("kind", ["I", "L", "T"])
def test_ingest_maps_from_the_frames_alone(simulated, run_shared, kind):
    """Given the frames and the truth oracles' outputs, and no ground truth, ``ingest`` logs, optimizes and maps as
    ``run_pipeline`` does, byte for byte; and no observation type carries a truth field."""
    for observation in (FrameObservation, HumanDetection):
        fields = {f.name for f in dataclasses.fields(observation)}
        assert not fields & {"depth", "world", "agent_index", "camera_pose"}, observation

    scene, params = builtin_config(kind), pipeline.PipelineParams()
    result = run_shared(scene, params)
    frames, truth = simulated(scene)
    oracles = (
        Pose2(*truth.camera_poses[0]),
        pipeline.truth_calibration(frames, truth, scene.intrinsics),
        pipeline.truth_closures(truth, params),
    )
    del truth
    ing = pipeline.ingest(frames, scene.intrinsics, params, *oracles)
    assert ing.events and export_evidence_log(ing.store) == export_evidence_log(result.store)
    assert ing.graph.dumps() == result.graph.dumps()
    from_frames = dataclasses.replace(result, graph=ing.graph, store=ing.store)
    for layers in pipeline.COMBINATIONS:
        got, expected = (pipeline.build_combo_map(res, layers) for res in (from_frames, result))
        assert export_pgm(got) == export_pgm(expected), layers


def test_equal_boxes_keep_their_own_detection_index():
    """Two tracks matched to two detections equal by value each name their own detection in their position row.

    Two walkers 50 px apart are tracked for six frames; in the seventh both
    boxes are the same box, between them.  Matching by value would name the
    first box for both, and the truth join would then name one walker twice.
    """
    camera = CameraIntrinsics()

    def box(x):
        return HumanDetection(x - 20.0, x + 20.0, 100.0, 400.0)

    xs = [(200.0, 250.0)] * 6 + [(225.0, 225.0)]
    frames = [
        FrameObservation(fi, fi / 30, 0.0, None if fi == 0 else (0.0, 0.0, 0.0), detections=[box(x) for x in pair])
        for fi, pair in enumerate(xs)
    ]
    res = pipeline.ingest(frames, camera, pipeline.PipelineParams(), Pose2(), ScaleCalibration(1.0), [])
    last = [(track_id, det) for fi, track_id, det, _, _ in res.position_diags if fi == 6]
    assert last == [(0, 0), (1, 1)]


def _unranged_first_walker(scene):
    """``scene`` with its first walker shorter than the camera mount: its head is below the horizon, so no range."""
    first = dataclasses.replace(scene.humans[0], body_height=1.55)
    intrinsics = dataclasses.replace(scene.intrinsics, cam_height=1.6)
    return dataclasses.replace(scene, humans=[first, *scene.humans[1:]], intrinsics=intrinsics)


def _ingest_inputs(simulated, scene, params):
    """``ingest``'s arguments for ``scene``: its frames and the truth oracles' outputs, as ``run_pipeline`` gives them."""
    frames, truth = simulated(scene)
    closures = pipeline.truth_closures(truth, params) if params.enable_closures else []
    calibration = pipeline.truth_calibration(frames, truth, scene.intrinsics)
    return frames, scene.intrinsics, params, Pose2(*truth.camera_poses[0]), calibration, closures


def _pass_between_outputs(res):
    """The evidence log and pass-between diagnostics of ``res`` as text."""
    return export_evidence_log(res.store), repr(res.occlusion_diags), repr(res.pair_diags)


_NOISY_L = dataclasses.replace(builtin_config("L"), rng_seed=3, odom_sigma_trans=0.005, odom_sigma_rot=0.0025)
#: Closures as little as five keyframes apart: 32 closure events on noisy L and T, each one moving the poses.
_MANY_CLOSURES = pipeline.PipelineParams(closure_min_gap=5)


@pytest.mark.parametrize(
    "scene, params, closes",
    [
        (builtin_config("I"), None, True),
        (builtin_config("L"), None, True),
        (builtin_config("T"), None, True),
        (_NOISY_T, None, True),
        (parse_scenario(EXAMPLE_SCENARIO), None, False),
        (_unranged_first_walker(builtin_config("T")), None, True),
        (_NOISY_L, _MANY_CLOSURES, True),
        (_NOISY_T, _MANY_CLOSURES, True),
    ],
    ids=["I", "L", "T", "T-noisy", "example", "T-unranged-walker", "L-noisy-gap5", "T-noisy-gap5"],
)
def test_pass_between_blocks_match_per_frame_stage(monkeypatch, simulated, scene, params, closes):
    """Blocked pass-between and the log merge log what the per-frame stage logged in the loop, in order, byte for byte.

    The per-frame reference (``ingest_per_frame``, which runs
    ``pass_between_per_frame`` wherever it queues a job) builds its own
    landmark table at each such frame, at the graph's poses then and of the
    landmarks logged so far, so it does not share the blocked stage's one
    table per closure epoch.
    """
    params = params or pipeline.PipelineParams()
    blocks = collections.Counter()  # blocks per closure epoch
    tables = []
    pass_block, landmark_table = pipeline._pass_block, pipeline._landmark_table

    def spy(result, camera, jobs, table, cams, regions):
        epochs = {job.epoch for job in jobs}
        assert len(epochs) == 1 and len(jobs) <= pipeline._PASS_BLOCK
        blocks[epochs.pop()] += 1
        pass_block(result, camera, jobs, table, cams, regions)

    def counted_table(landmarks, poses):
        tables.append(landmark_table(landmarks, poses))
        return tables[-1]

    monkeypatch.setattr(pipeline, "_pass_block", spy)
    monkeypatch.setattr(pipeline, "_landmark_table", counted_table)
    inputs = _ingest_inputs(simulated, scene, params)
    res = pipeline.ingest(*inputs)
    # One table per closure epoch at most; one epoch's jobs split over blocks; and, with closures, more than one epoch.
    epochs = len(res.events) + 1
    assert len(tables) <= epochs and len(blocks) <= epochs and max(blocks.values()) > 1
    assert (epochs > 1) == closes
    if params is _MANY_CLOSURES:
        assert len(res.events) == 32 and len(blocks) > 16

    ref, _, _ = ingest_per_frame(*inputs)
    assert ref.occlusion_diags
    assert _pass_between_outputs(res) == _pass_between_outputs(ref)


#: The builtin scenes draw no noise, so any seed gives seed 0's frames; the noisy ones at seed 3.
_FRONT_END_SCENES = {
    **{kind: builtin_config(kind) for kind in "ILT"},
    **{
        f"{kind}-noisy": dataclasses.replace(builtin_config(kind), rng_seed=3, odom_sigma_trans=0.005, odom_sigma_rot=0.0025)
        for kind in "ILT"
    },
}
_FRONT_END_PARAMS = {
    "default": pipeline.PipelineParams(),
    "gap5": pipeline.PipelineParams(closure_min_gap=5),
    "stride3": pipeline.PipelineParams(keyframe_stride=3),
    "stride1-gap60": pipeline.PipelineParams(keyframe_stride=1, closure_min_gap=60),
}


@pytest.mark.parametrize("params", _FRONT_END_PARAMS.values(), ids=_FRONT_END_PARAMS.keys())
@pytest.mark.parametrize("scene", _FRONT_END_SCENES.values(), ids=_FRONT_END_SCENES.keys())
def test_array_pass_matches_the_per_frame_front_end(monkeypatch, simulated, scene, params):
    """``ingest`` logs, tracks, optimizes and queues jobs as the scalar per-frame loop did, bit for bit.

    Compared by ``repr``: the graph, the events, the track histories, the
    position rows, the whole evidence log (HO3 records included), the
    pass-between diagnostics, the jobs (with their camera poses and
    regions) and each closure epoch's poses.
    """
    inputs = _ingest_inputs(simulated, scene, params)
    seen = {}
    pass_between = pipeline._pass_between

    def spy(res, camera, rows, jobs, landmarks, row):
        seen.update(rows=rows, jobs=jobs)
        pass_between(res, camera, rows, jobs, landmarks, row)

    monkeypatch.setattr(pipeline, "_pass_between", spy)
    res = pipeline.ingest(*inputs)
    ref, ref_jobs, ref_epochs = ingest_per_frame(*inputs)

    assert res.graph.dumps() == ref.graph.dumps()
    assert repr(res.events) == repr(ref.events)
    assert repr(res.tracks) == repr(ref.tracks)
    assert repr(res.position_diags) == repr(ref.position_diags)
    assert any(isinstance(rec, Ho3Evidence) for rec in ref.store.records)
    assert repr(res.store.records) == repr(ref.store.records)
    assert repr(res.occlusion_diags) == repr(ref.occlusion_diags)
    assert repr(res.pair_diags) == repr(ref.pair_diags)
    rows = seen["rows"]
    jobs = [
        (
            job.frame, job.frame - 1, tuple(rows.poses[job.frame].tolist()), (job.epoch, job.n_landmarks),
            job.track_id, tuple(rows.regions[job.detection].tolist()),
        )
        for job in seen["jobs"]
    ]
    assert jobs and repr(jobs) == repr(ref_jobs)
    assert repr(rows.epoch_poses) == repr(ref_epochs)


def test_pass_block_column_bounds_are_inclusive():
    """Landmarks seen exactly on the region's column bounds are in front, and one ulp outside them are not.

    The block culls seen candidates by column before it projects anything,
    so the cull must keep ``classify_occlusion``'s inclusive bounds.
    """
    camera = CameraIntrinsics()
    x_min, x_max, human_depth = 300.0, 340.0, 2.0
    us = np.array([x_min, x_max, np.nextafter(x_min, -np.inf), np.nextafter(x_max, np.inf)])
    features = np.zeros(len(us), FEATURE_DTYPE)
    features["feature_id"], features["u"], features["v"], features["visible"] = np.arange(len(us)), us, 400.0, True
    prev_frame, frame = FrameObservation(0, 0.0, 0.0, None), FrameObservation(1, 0.1, 0.0, None, features)
    # Each landmark 1 m ahead of a camera at the origin, on its own column's ray.
    worlds = np.column_stack((np.ones(len(us)), (camera.cx - us) / camera.f, np.zeros(len(us))))
    frames = [prev_frame, frame]
    res = pipeline.PipelineResult(pipeline.PipelineParams(), frames, ScaleCalibration(1.0), [True, True], PoseGraph())
    job = pipeline._PassJob(1, 0, 0, len(us), 7)
    cams, regions = np.zeros((2, 3)), np.array([(x_min, x_max, 0.0, 720.0, human_depth)])
    pipeline._pass_block(res, camera, [job], (worlds, np.arange(len(us))), cams, regions)

    front, behind = classify_occlusion(us, np.ones(len(us), dtype=bool), (x_min, x_max))
    assert front.tolist() == [True, True, False, False] and not behind.any()
    assert [(row[2], row[3], row[4]) for row in res.occlusion_diags] == [
        (0, OcclusionClass.FRONT, x_min),
        (1, OcclusionClass.FRONT, x_max),
    ]
    assert not res.pair_diags and not res.store.records


@pytest.mark.parametrize("seed", [0, 3])
def test_loop_closure_bounds_landmark_error_under_drift(ingest_shared, seed):
    """With odometry noise on T, closing the loop lowers mean and max landmark error."""
    scene = dataclasses.replace(builtin_config("T"), rng_seed=seed, odom_sigma_trans=0.005, odom_sigma_rot=0.0025)

    def landmark_errors(enable_closures):
        result, truth = ingest_shared(scene, pipeline.PipelineParams(enable_closures=enable_closures))
        assert len(result.events) == int(enable_closures)
        landmarks = result.store.landmarks
        worlds = landmark_worlds(landmarks.values(), pose_table(result.graph.snapshot()))
        points = truth.feature_points
        return np.array([math.dist(w, points[fid][:2]) for fid, w in zip(landmarks, worlds.tolist())])

    closed, open_loop = landmark_errors(True), landmark_errors(False)
    assert len(closed) == len(open_loop) > 300
    assert closed.mean() < open_loop.mean()
    assert closed.max() < open_loop.max()
    assert closed.max() <= 0.40
