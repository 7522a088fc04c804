import dataclasses
import math

import numpy as np
import pytest
from _oracles import BehindCameraError, occlusion_test, project_point

from travmap import scenesim
from travmap.gridmap import CellState
from travmap.posegraph import wrap_angle
from travmap.scenesim import (
    AgentTrajectory,
    FEATURE_DTYPE,
    CameraIntrinsics,
    FrameObservation,
    ObstacleBox,
    SceneConfig,
    builtin_config,
    ground_truth_map,
    sample_feature_points,
    simulate_sequence,
)

INTR = CameraIntrinsics(f=500.0, cx=320.0, cy=240.0, image_width=640, image_height=480, cam_height=0.85)


# ---------------------------------------------------------------------------
# builtin scenes


def test_builtin_i_bounds_and_rates():
    cfg = builtin_config("I")
    assert cfg.bounds == (0.0, 0.0, 3.0, 6.0)
    assert cfg.fps == 30
    assert cfg.robot_radius == 0.5
    assert len(cfg.obstacles) == 2
    for box in cfg.obstacles:
        assert box.half_extents == (0.3, 1.25)  # 0.6 m x 2.5 m tables
        assert box.top_height == 0.7
    assert len(cfg.humans) == 1


def test_builtin_i_aisle_between_tables():
    a, b = builtin_config("I").obstacles
    gap = (b.center[0] - b.half_extents[0]) - (a.center[0] + a.half_extents[0])
    assert gap == pytest.approx(1.2)  # one cell wider than the inflated diameter


def test_builtin_l_single_turn():
    cfg = builtin_config("L")
    yaws = [wp[1][2] for wp in cfg.humans[0].waypoints]
    changes = [wrap_angle(b - a) for a, b in zip(yaws, yaws[1:]) if abs(wrap_angle(b - a)) > 1e-9]
    assert len(changes) == 1
    assert abs(changes[0]) == pytest.approx(math.pi / 2)


def test_builtin_t_has_two_walkers():
    cfg = builtin_config("T")
    assert len(cfg.humans) == 2
    assert len(cfg.obstacles) == 3


def test_builtin_rejects_unknown_kind():
    with pytest.raises(ValueError):
        builtin_config("X")


def test_human_height_validated():
    with pytest.raises(ValueError):
        AgentTrajectory("human", ((0.0, (0, 0, 0)), (1.0, (1, 0, 0))), body_height=2.5)


def test_waypoint_times_strictly_increasing():
    with pytest.raises(ValueError):
        AgentTrajectory("robot", ((0.0, (0, 0, 0)), (0.0, (1, 0, 0))))


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: CameraIntrinsics(f=math.nan), "f"),
        (lambda: CameraIntrinsics(cam_height=math.nan), "cam_height"),
        (lambda: ObstacleBox((math.nan, 3.0), (0.3, 1.25), 0.7), "center"),
        (lambda: ObstacleBox((0.8, 3.0), (0.3, math.inf), 0.7), "half_extents"),
        (lambda: ObstacleBox((0.8, 3.0), (0.3, 1.25), math.nan), "top_height"),
        (lambda: ObstacleBox((0.8, 3.0), (0.3, 1.25), 0.7, yaw=math.inf), "yaw"),
        (lambda: AgentTrajectory("robot", ((0.0, (0, 0, 0)), (1.0, (1, math.nan, 0)))), "waypoint y"),
        (lambda: AgentTrajectory("robot", ((0.0, (0, 0, 0)), (math.nan, (1, 0, 0)))), "waypoint t"),
    ],
)
def test_scene_parts_reject_non_finite_numbers(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make()


# ---------------------------------------------------------------------------
# projection


def test_project_on_axis():
    u, v, depth = project_point(INTR, (0, 0, 0), (5, 0, 0.85))
    assert (u, v, depth) == (INTR.cx, INTR.cy, 5.0)


def test_project_lateral_point():
    u, v, depth = project_point(INTR, (0, 0, 0), (3, -0.6, 0.85))
    assert u == pytest.approx(INTR.cx + 100)
    assert v == pytest.approx(INTR.cy)
    assert depth == pytest.approx(3.0)


def test_project_behind_camera():
    with pytest.raises(BehindCameraError):
        project_point(INTR, (0, 0, 0), (-1, 0, 0.85))


def test_project_height_maps_down():
    # above the camera plane -> smaller v (image up)
    u, v, _ = project_point(INTR, (0, 0, 0), (2, 0, 1.7))
    assert v < INTR.cy


def test_project_respects_camera_yaw():
    u, v, depth = project_point(INTR, (1, 1, math.pi / 2), (1, 4, 0.85))
    assert u == pytest.approx(INTR.cx)
    assert depth == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# occlusion


def _slab_at_x2():
    return ObstacleBox((2.0, 0.0), (0.05, 5.0), 0.7)


def test_occlusion_head_clears_slab():
    # line of sight rises over the slab: 0.85 + 2*(1.7-0.85)/4 = 1.275 > 0.7
    assert occlusion_test((0, 0, 0), 0.85, (4, 0, 1.7), [_slab_at_x2()])


def test_occlusion_feet_blocked_by_slab():
    # 0.85*(1 - 2/4) = 0.425 < 0.7
    assert not occlusion_test((0, 0, 0), 0.85, (4, 0, 0.0), [_slab_at_x2()])


def test_occlusion_empty_scene():
    assert occlusion_test((0, 0, 0), 0.85, (4, 0, 0.0), [])


def test_occlusion_human_cylinder_blocks():
    humans = [((2.0, 0.0), 1.7)]
    assert not occlusion_test((0, 0, 0), 0.85, (4, 0, 0.8), [], humans)
    # the target's own body never occludes itself
    assert occlusion_test((0, 0, 0), 0.85, (2, 0, 1.7), [], humans, exclude_human=0)
    # passing far to the side is clear
    assert occlusion_test((0, 0, 0), 0.85, (4, 3, 0.8), [], humans)


def test_occlusion_feature_on_near_face_visible():
    box = ObstacleBox((2.0, 0.0), (0.5, 0.5), 0.7)
    assert occlusion_test((0, 0, 0), 0.85, (1.5, 0.0, 0.7), [box])  # near top edge
    assert not occlusion_test((0, 0, 0), 0.85, (2.5, 0.0, 0.1), [box])  # far low edge


_TABLE = ObstacleBox((2.0, 0.0), (0.3, 1.25), 0.7)  # 0.6 m x 2.5 m, long side along y
_TURNED_TABLE = ObstacleBox((2.0, 0.0), (0.3, 1.25), 0.7, yaw=math.pi / 2)  # long side along x
_BODY = ((2.0, 0.0), 1.7)


@pytest.mark.parametrize(
    "obstacles, humans, cam_height, target, clear",
    [
        # the low sight line crosses the table at y 0.68..0.92, z 0.42..0.53
        ([_TABLE], [], 0.85, (4.0, 1.6, 0.1), False),
        ([_TABLE], [], 0.85, (1.2, 0.0, 0.1), True),
        # turned, the table's footprint ends (y 0.3) before that line drops below its top
        ([_TURNED_TABLE], [], 0.85, (4.0, 1.6, 0.1), True),
        ([_TURNED_TABLE], [], 0.85, (1.2, 0.0, 0.1), False),
        # level sight lines (dz = 0): over the 0.7 m table, through the 1.7 m body, over the body
        ([_TABLE], [], 0.85, (4.0, 0.0, 0.85), True),
        ([], [_BODY], 0.85, (4.0, 0.0, 0.85), False),
        ([], [_BODY], 1.8, (4.0, 0.0, 1.8), True),
    ],
    ids=[
        "table-far-blocked",
        "table-near-clear",
        "turned-far-clear",
        "turned-near-blocked",
        "level-over-table",
        "level-through-body",
        "level-over-body",
    ],
)
def test_occlusion_rotated_box_and_level_lines(obstacles, humans, cam_height, target, clear):
    assert occlusion_test((0, 0, 0), cam_height, target, obstacles, humans) is clear


# ---------------------------------------------------------------------------
# ground truth map


def _minimal_scene(obstacles, humans=(), duration=1.0):
    robot = AgentTrajectory("robot", ((0.0, (0.25, 0.3, 0.0)), (duration, (0.25, 0.4, 0.0))))
    return SceneConfig(
        bounds=(0.0, 0.0, 3.0, 6.0),
        obstacles=list(obstacles),
        humans=list(humans),
        robot=robot,
        intrinsics=INTR,
        camera_yaw_offset=0.0,
    )


def test_ground_truth_empty_scene_all_traversable():
    gt = ground_truth_map(_minimal_scene([]))
    assert (gt.cells == int(CellState.TRAVERSABLE)).all()


def test_ground_truth_has_no_unknown():
    for kind in ("I", "L", "T"):
        gt = ground_truth_map(builtin_config(kind))
        assert (gt.cells != int(CellState.UNKNOWN)).all()


def test_ground_truth_inflation_boundary_closed():
    # footprint right edge at x=1.75; cell center (2.25, 3.05) is exactly 0.5 away
    box = ObstacleBox((1.45, 3.05), (0.3, 1.25), 0.7)
    gt = ground_truth_map(_minimal_scene([box]))
    assert gt.state(*gt.world_to_cell(2.25, 3.05)) is CellState.UNTRAVERSABLE
    assert gt.state(*gt.world_to_cell(2.35, 3.05)) is CellState.TRAVERSABLE


def test_ground_truth_rotated_box():
    box = ObstacleBox((1.5, 3.0), (0.3, 1.25), 0.7, yaw=math.pi / 2)
    gt = ground_truth_map(_minimal_scene([box]))
    # long axis now along x: (2.7, 3.0) inside footprint, (1.5, 4.0) 0.7 above it
    assert gt.state(*gt.world_to_cell(2.7, 3.0)) is CellState.UNTRAVERSABLE
    assert gt.state(*gt.world_to_cell(1.5, 4.05)) is CellState.TRAVERSABLE


# ---------------------------------------------------------------------------
# simulation


def test_frame_count_inclusive(simulated):
    frames, _ = simulated(builtin_config("I"))
    assert len(frames) == 1801  # 60 s at 30 fps, endpoints inclusive


def test_simulation_deterministic():
    cfg = builtin_config("I")
    a, _ = simulate_sequence(cfg)
    b, _ = simulate_sequence(cfg)
    assert a == b


def test_empty_scene_has_no_observations():
    frames, _ = simulate_sequence(_minimal_scene([]))
    assert all(len(f.features) == 0 and not f.detections for f in frames)


def test_frame_features_are_plain_structured_arrays(simulated):
    frames, _ = simulated(builtin_config("I"))
    default = FrameObservation(0, 0.0, 0.0, None).features
    for features in (default, frames[0].features, frames[-1].features):
        assert type(features) is np.ndarray and features.dtype == FEATURE_DTYPE
        assert features.dtype.type is np.void
    assert len(default) == 0 and len(frames[0].features) > 0
    assert type(frames[0].features[0]) is np.void


def test_frames_compare_features_by_value():
    features = np.array([(3, 10.0, 20.0, 1.5, True), (4, 11.0, 21.0, 2.5, False)], dtype=FEATURE_DTYPE)
    frame = FrameObservation(0, 0.0, 0.0, None, features)
    assert frame == dataclasses.replace(frame, features=features.copy())
    flipped = features.copy()
    flipped["visible"][1] = True
    assert frame != dataclasses.replace(frame, features=flipped)
    assert frame != dataclasses.replace(frame, frame_index=1)


def test_features_roundtrip_through_project_point(simulated):
    cfg = builtin_config("I")
    frames, truth = simulated(cfg)
    checked = 0
    for frame in frames[::97]:
        for fobs in frame.features:
            cam = truth.camera_poses[frame.frame_index]
            u, v, depth = project_point(cfg.intrinsics, cam, truth.feature_points[fobs["feature_id"]])
            assert (u, v, depth) == (fobs["u"], fobs["v"], fobs["depth"])
            checked += 1
    assert checked > 100


def test_detection_requires_visible_head(simulated):
    cfg = builtin_config("I")
    frames, truth = simulated(cfg)
    human = cfg.humans[0]
    checked = 0
    for frame in frames[::53]:
        (hx, hy) = truth.human_positions[frame.frame_index][0]
        cam = truth.camera_poses[frame.frame_index]
        head = (hx, hy, human.body_height)
        try:
            u, v, depth = project_point(cfg.intrinsics, cam, head)
            in_image = 0 <= u < cfg.intrinsics.image_width and 0 <= v < cfg.intrinsics.image_height
        except BehindCameraError:
            in_image = False
        visible = in_image and occlusion_test(cam, cfg.intrinsics.cam_height, head, cfg.obstacles, [], exclude_human=None)
        walkers = [agent_index for agent_index, _ in truth.detected[frame.frame_index]]
        has_detection = 0 in walkers
        assert has_detection == visible
        if visible:
            det = frame.detections[walkers.index(0)]
            assert det.y_min == pytest.approx(v)  # head row tops the box
            assert det.x_min < det.x_max and det.y_min < det.y_max
            checked += 1
    assert checked > 3


def test_partial_occlusion_clips_box_bottom():
    # human fully behind a 0.7 m slab: only the upper body is visible
    slab = ObstacleBox((1.0, 3.0), (0.05, 2.0), 0.7)
    human = AgentTrajectory(
        "human", ((0.0, (2.6, 3.0, 0.0)), (1.0, (2.6, 3.1, 0.0))), body_height=1.7
    )
    camera_fixed = AgentTrajectory("robot", ((0.0, (0.25, 3.0, 0.0)), (1.0, (0.25, 3.0, 0.0))))
    scene = _minimal_scene([slab], [human])
    scene.robot = camera_fixed
    frames, _ = simulate_sequence(scene)
    det = frames[0].detections[0]
    unobstructed = _minimal_scene([], [human])
    unobstructed.robot = camera_fixed
    frames_clear, _ = simulate_sequence(unobstructed)
    det_clear = frames_clear[0].detections[0]
    assert det.y_min == pytest.approx(det_clear.y_min)  # the head row is unchanged
    assert det.y_max < det_clear.y_max  # the feet are cut off by the slab


def test_walker_behind_the_camera_is_never_seen():
    # The walker's head is behind the camera in every frame, so no frame of it reaches a sight-line test.
    slab = ObstacleBox((2.0, 0.4), (0.1, 1.0), 0.7)
    ahead = AgentTrajectory("human", ((0.0, (2.8, 0.3, 0.0)), (1.0, (2.8, 0.5, 0.0))), body_height=1.7)
    behind = AgentTrajectory("human", ((0.0, (0.1, 0.3, 0.0)), (1.0, (0.1, 0.5, 0.0))), body_height=1.7)
    robot = AgentTrajectory("robot", ((0.0, (0.6, 0.3, 0.0)), (1.0, (0.6, 0.5, 0.0))))
    without = dataclasses.replace(_minimal_scene([slab], [ahead]), robot=robot)
    frames, truth = simulate_sequence(dataclasses.replace(without, humans=[ahead, behind]))
    frames_without, truth_without = simulate_sequence(without)
    assert not any(agent_index == 1 for detected in truth.detected for agent_index, _ in detected)
    assert [frame.detections for frame in frames] == [frame.detections for frame in frames_without]
    assert truth.detected == truth_without.detected
    assert all(frame.detections for frame in frames)
    assert all(np.array_equal(f.features, g.features) for f, g in zip(frames, frames_without, strict=True))
    assert all(f.features["visible"].any() for f in frames)


def test_feature_sampling_deterministic_and_spaced():
    cfg = builtin_config("I")
    pts = sample_feature_points(cfg)
    assert pts == sample_feature_points(cfg)
    heights = {round(p[2], 6) for p in pts.values()}
    assert heights == {0.1, 0.7}
    # one table: perimeter 6.2 m at 0.1 m spacing, two heights
    per_table = 2 * (6 + 25) * 2
    assert len(pts) == per_table * len(cfg.obstacles)


def test_odometry_composes_to_pose(simulated):
    from travmap.posegraph import Pose2, se2_compose

    frames, truth = simulated(builtin_config("I"))
    pose = Pose2(*truth.camera_poses[0])
    for frame in frames[1:]:
        pose = se2_compose(pose, Pose2(*frame.odometry))
    assert pose.x == pytest.approx(truth.camera_poses[-1][0], abs=1e-9)
    assert pose.y == pytest.approx(truth.camera_poses[-1][1], abs=1e-9)


def test_odometry_noise_seeded():
    import dataclasses

    cfg = dataclasses.replace(builtin_config("I"), odom_sigma_trans=0.01, odom_sigma_rot=0.001)
    a, _ = simulate_sequence(cfg)
    b, _ = simulate_sequence(cfg)
    assert a == b
    c, _ = simulate_sequence(dataclasses.replace(cfg, rng_seed=5))
    assert a != c


# ---------------------------------------------------------------------------
# frame blocks against single sight lines


def _single_ray_reference(cfg, truth, k):
    """Frame k's features and per-human (detected, head row), one project_point / occlusion_test call each."""
    intr = cfg.intrinsics
    cam = truth.camera_poses[k]
    bodies = [(xy, h.body_height) for xy, h in zip(truth.human_positions[k], cfg.humans)]

    def in_image(p):
        try:
            u, v, depth = project_point(intr, cam, p)
        except BehindCameraError:
            return None
        if depth > scenesim._RAY_EPS and 0 <= u < intr.image_width and 0 <= v < intr.image_height:
            return u, v, depth
        return None

    rows = []
    for fid, p in sorted(truth.feature_points.items()):
        seen = in_image(p)
        if seen is not None:
            rows.append((fid, *seen, occlusion_test(cam, intr.cam_height, p, cfg.obstacles, bodies)))
    features = np.array(rows, dtype=FEATURE_DTYPE)
    heads = []
    for h_idx, ((hx, hy), height) in enumerate(bodies):
        head = (hx, hy, height)
        seen = in_image(head)
        clear = seen is not None and occlusion_test(cam, intr.cam_height, head, cfg.obstacles, bodies, exclude_human=h_idx)
        heads.append((True, seen[1]) if clear else (False, None))
    return features, heads


def _assert_frames_match_single_rays(cfg, frames, truth, ks):
    """Compare frames ks with the reference; returns (visible, hidden, detected) totals over them."""
    totals = [0, 0, 0]
    for k in ks:
        features, heads = _single_ray_reference(cfg, truth, k)
        assert frames[k].features.dtype == FEATURE_DTYPE and np.array_equal(frames[k].features, features), k
        walker_boxes = list(zip(truth.detected[k], frames[k].detections, strict=True))
        got = [[d for (agent_index, _), d in walker_boxes if agent_index == h_idx] for h_idx in range(len(cfg.humans))]
        assert [(len(d) == 1, d[0].y_min if d else None) for d in got] == heads, k
        totals[0] += int(features["visible"].sum())
        totals[1] += int((~features["visible"]).sum())
        totals[2] += sum(seen for seen, _ in heads)
    return totals


def _seam_frames(n_frames):
    """The first and last frame, and the frames on both sides of each block boundary."""
    block = scenesim._FRAME_BLOCK
    ks = {0, n_frames - 1}
    for start in range(block, n_frames, block):
        ks |= {start - 1, start}
    return sorted(ks)


#: Box yaws that are not multiples of pi/2, where a rotation rounds in its last bits.
_ODD_YAWS = (0.3, -1.1, 2.0)


def _t_scenes():
    """T as built, and T with its three tables turned to ``_ODD_YAWS``."""
    cfg = builtin_config("T")
    turned = [dataclasses.replace(box, yaw=yaw) for box, yaw in zip(cfg.obstacles, _ODD_YAWS, strict=True)]
    return [cfg, dataclasses.replace(cfg, obstacles=turned)]


def test_block_seams_match_single_rays(simulated):
    # T: two walkers, so one body can hide the other's head or a feature.
    for cfg in _t_scenes():
        frames, truth = simulated(cfg)
        visible, hidden, detected = _assert_frames_match_single_rays(cfg, frames, truth, _seam_frames(len(frames)))
        assert visible > 1000 and hidden > 1000 and detected > 20


def test_partial_and_single_frame_blocks_match_single_rays():
    block = scenesim._FRAME_BLOCK
    for cfg in _t_scenes():
        one_past = dataclasses.replace(
            cfg, robot=AgentTrajectory("robot", ((0.0, (0.25, 0.3, 0.0)), (block / cfg.fps, (0.9, 0.3, 0.2))))
        )
        frames, truth = simulate_sequence(one_past)
        assert len(frames) == block + 1
        assert all(_assert_frames_match_single_rays(one_past, frames, truth, [0, block - 1, block]))

        single = dataclasses.replace(cfg, robot=AgentTrajectory("robot", ((0.0, (0.25, 2.0, -2.356)),)))  # facing both walkers
        frames, truth = simulate_sequence(single)
        assert len(frames) == 1 and frames[0].odometry is None
        assert all(_assert_frames_match_single_rays(single, frames, truth, [0]))


@pytest.mark.parametrize("yaw", _ODD_YAWS)
def test_box_frame_rotation_rounds_alike_alone_and_in_blocks(yaw):
    box = ObstacleBox((1.3, 2.7), (0.3, 1.25), 0.7, yaw=yaw)
    xy = np.random.default_rng(0).uniform(-5.0, 5.0, size=(2000, 2))
    block = np.column_stack(scenesim._to_box_frame(xy[:, 0], xy[:, 1], box))
    alone = np.array([scenesim._to_box_frame(x, y, box) for x, y in xy])
    rows = np.array([np.concatenate(scenesim._to_box_frame(xy[k : k + 1, 0], xy[k : k + 1, 1], box)) for k in range(len(xy))])
    assert block.tobytes() == alone.tobytes() == rows.tobytes()
