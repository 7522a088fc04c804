import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    infer_pass_pair,
    paint_expected_map,
    project_point,
    rebuild_endpoints,
    scalar_apparent_height_px,
    scalar_estimate_depth,
    scalar_human_map_position,
)
from travmap import evidence, pipeline
from travmap.evidence import (
    ALL_LAYERS,
    EvidenceError,
    EvidenceStore,
    Ho3Evidence,
    OcclusionClass,
    PfhEvidence,
    RebuildParams,
    ScaleCalibration,
    SfmEvidence,
    apparent_height_px,
    calibrate_scale,
    classify_occlusion,
    estimate_depth,
    export_evidence_log,
    human_map_position,
    infer_pass_pairs,
    rebuild_map,
)
from travmap.gridmap import CellState, LayerPriority, new_map
from travmap.pipeline import COMBINATIONS
from travmap.posegraph import Pose2, se2_compose, se2_inverse
from travmap.scenesim import CameraIntrinsics, builtin_config

INTR = CameraIntrinsics(f=500.0, cx=320.0, cy=240.0, image_width=640, image_height=480, cam_height=0.85)

# The fusion order and radii the rebuild tests were written against: trails
# over pass-between bands over feature obstacles, 0.5 m robot radius.
TRAILS_ON_TOP = LayerPriority(("sfm", "ho3", "pfh"))
RADII = RebuildParams()

FRONT = OcclusionClass.FRONT
BEHIND = OcclusionClass.BEHIND


# ---------------------------------------------------------------------------
# scale calibration and depth


def test_calibrate_single_sample():
    cal = calibrate_scale([(5.0, 500.0, 170.0, 1.7)])
    assert cal.k == pytest.approx(1.0)


def test_calibrate_median_is_robust():
    samples = [
        (0.9 * 500 * 1.7 / 170.0, 500.0, 170.0, 1.7),
        (1.0 * 500 * 1.7 / 170.0, 500.0, 170.0, 1.7),
        (5.0 * 500 * 1.7 / 170.0, 500.0, 170.0, 1.7),
    ]
    assert calibrate_scale(samples).k == pytest.approx(1.0)


def test_calibrate_rejects_bad_samples():
    with pytest.raises(ValueError):
        calibrate_scale([])
    with pytest.raises(ValueError):
        calibrate_scale([(5.0, 500.0, 0.0, 1.7)])


@pytest.mark.parametrize(
    "sample, message",
    [
        pytest.param((math.nan, 500.0, 100.0, 1.7), "slam_distance must be finite and > 0.0, got nan", id="nan-distance"),
        pytest.param((2.0, math.inf, 100.0, 1.7), "focal_px must be finite and > 0.0, got inf", id="inf-focal"),
        pytest.param((2.0, 500.0, math.nan, 1.7), "apparent_height_px must be finite and > 0.0, got nan", id="nan-height-px"),
        pytest.param((2.0, 500.0, 100.0, -1.7), "body_height_m must be finite and > 0.0, got -1.7", id="negative-body-height"),
    ],
)
def test_calibrate_rejects_non_finite_samples_naming_the_field(sample, message):
    # The NaN in the middle would make the median NaN: one bad sample spoils the scale.
    with pytest.raises(ValueError, match=message):
        calibrate_scale([(2.0, 500.0, 100.0, 1.7), sample, (3.0, 500.0, 100.0, 1.7)])


@pytest.mark.parametrize("k", [math.nan, math.inf, 0.0, -1.0])
def test_scale_calibration_must_be_finite_and_positive(k):
    with pytest.raises(ValueError, match="k must be finite and > 0"):
        ScaleCalibration(k)


def test_estimate_depth_similar_triangles():
    assert estimate_depth(ScaleCalibration(1.0), 500.0, 1.7, 170.0) == pytest.approx(5.0)


def test_estimate_depth_five_foot_human():
    # 5 ft = 1.524 m: 500 * 1.524 / 127 = 6.0
    assert estimate_depth(ScaleCalibration(1.0), 500.0, 1.524, 127.0) == pytest.approx(6.0)


def test_estimate_depth_rejects_flat_box():
    with pytest.raises(ValueError):
        estimate_depth(ScaleCalibration(1.0), 500.0, 1.7, 0.0)
    with pytest.raises(ValueError, match="apparent height must be positive"):
        estimate_depth(ScaleCalibration(1.0), 500.0, 1.7, math.nan)


@pytest.mark.parametrize("f", [math.nan, 0.0, -500.0, math.inf])
def test_estimate_depth_rejects_bad_focal_length(f):
    with pytest.raises(ValueError, match=f"f must be finite and positive, got {f}"):
        estimate_depth(ScaleCalibration(1.0), f, 1.7, 100.0)


@pytest.mark.parametrize("body_height", [math.nan, 0.0, -1.7, math.inf])
def test_estimate_depth_rejects_bad_body_height(body_height):
    with pytest.raises(ValueError, match=f"body_height must be finite and positive, got {body_height}"):
        estimate_depth(ScaleCalibration(1.0), 500.0, body_height, 100.0)


@given(
    k=st.floats(0.1, 5.0),
    f=st.floats(100.0, 1000.0),
    H=st.floats(1.52, 1.83),
    h_px=st.floats(5.0, 500.0),
    c=st.floats(0.5, 3.0),
)
def test_estimate_depth_scaling_laws(k, f, H, h_px, c):
    base = estimate_depth(ScaleCalibration(k), f, H, h_px)
    assert estimate_depth(ScaleCalibration(c * k), f, H, h_px) == pytest.approx(c * base, rel=1e-12)
    assert estimate_depth(ScaleCalibration(k), f, c * H, h_px) == pytest.approx(c * base, rel=1e-12)
    assert estimate_depth(ScaleCalibration(k), f, H, c * h_px) == pytest.approx(base / c, rel=1e-12)


def test_apparent_height_full_body_equivalence():
    # fully visible human: head-row height equals the plain pixel height
    cam = (0.0, 0.0, 0.0)
    depth = 4.0
    head = project_point(INTR, cam, (depth, 0.0, 1.7))
    feet = project_point(INTR, cam, (depth, 0.0, 0.0))
    h_direct = feet[1] - head[1]
    h_head = apparent_height_px(head[1], INTR, 1.7)
    assert h_head == pytest.approx(h_direct, rel=1e-12)


def test_apparent_height_degenerate_geometry():
    assert math.isnan(apparent_height_px(INTR.cy + 5.0, INTR, 1.7))  # head below horizon
    assert math.isnan(apparent_height_px(100.0, INTR, 0.5))  # shorter than the mount


@pytest.mark.parametrize(
    "y_min, body_height, message",
    [
        (math.nan, 1.7, "y_min must be finite, got nan"),
        (-math.inf, 1.7, "y_min must be finite, got -inf"),
        (math.inf, 1.7, "y_min must be finite, got inf"),
        (100.0, math.inf, "body_height must be finite and positive, got inf"),
        (100.0, 0.0, "body_height must be finite and positive, got 0.0"),
    ],
    ids=["nan-y-min", "minus-inf-y-min", "inf-y-min", "inf-body-height", "zero-body-height"],
)
def test_apparent_height_rejects_non_finite_inputs_naming_the_field(y_min, body_height, message):
    with pytest.raises(ValueError, match=message):
        apparent_height_px(y_min, INTR, body_height)


@given(
    y_min=st.lists(st.floats(-400.0, 800.0), max_size=8),
    body_height=st.sampled_from([0.5, 0.85, 1.7, 1.83]),
    k=st.floats(0.1, 5.0),
    poses=st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-3.14, 3.14)), min_size=8, max_size=8),
    columns=st.lists(st.floats(0.0, 600.0), min_size=8, max_size=8),
)
def test_range_estimators_match_the_scalar_forms_bit_for_bit(y_min, body_height, k, poses, columns):
    """Each element of the array estimators is what the scalar forms gave for its detection, None as NaN."""
    cal = ScaleCalibration(k)
    h_px = apparent_height_px(np.array(y_min, float), INTR, body_height)
    scalar = [scalar_apparent_height_px(y, INTR, body_height) for y in y_min]
    assert [None if math.isnan(h) else h for h in h_px.tolist()] == scalar
    ranged = [i for i, h in enumerate(scalar) if h is not None]
    depth = estimate_depth(cal, INTR.f, body_height, h_px[ranged])
    assert depth.tolist() == [scalar_estimate_depth(cal, INTR.f, body_height, scalar[i]) for i in ranged]
    boxes = [(u - 20.0, u + 20.0, y_min[i], y_min[i] + 50.0) for i, u in zip(ranged, columns)]
    cams = np.array(poses[: len(ranged)], float).reshape(-1, 3)
    worlds = human_map_position(cams, INTR, np.array(boxes, float).reshape(-1, 4), depth)
    expected = [scalar_human_map_position(p, INTR, b, d) for p, b, d in zip(poses, boxes, depth.tolist())]
    assert [tuple(w) for w in worlds.tolist()] == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_range_estimators_raise_as_the_scalar_forms_do(bad):
    """An array with one bad element raises the scalar form's ``ValueError`` for it."""
    with pytest.raises(ValueError) as scalar:
        scalar_apparent_height_px(bad, INTR, 1.7)
    with pytest.raises(ValueError, match=f"^{scalar.value}$"):
        apparent_height_px(np.array([100.0, bad, 120.0]), INTR, 1.7)
    with pytest.raises(ValueError, match="^apparent height must be positive$"):
        estimate_depth(ScaleCalibration(1.0), INTR.f, 1.7, np.array([100.0, -abs(bad), 120.0]))
    with pytest.raises(ValueError) as scalar:
        scalar_human_map_position((0.0, 0.0, 0.0), INTR, (0.0, 10.0, 0.0, 10.0), abs(bad))
    boxes = np.array([(0.0, 10.0, 0.0, 10.0)] * 3)
    with pytest.raises(ValueError, match=f"^{scalar.value}$"):
        human_map_position(np.zeros((3, 3)), INTR, boxes, np.array([2.0, abs(bad), 3.0]))


# ---------------------------------------------------------------------------
# image -> map transform


def _map_position(cam_pose, bbox, depth):
    """``human_map_position`` of one detection."""
    return tuple(human_map_position(np.array([cam_pose], float), INTR, np.array([bbox], float), [depth])[0].tolist())


def test_human_map_position_on_axis():
    pos = _map_position((0, 0, 0), (INTR.cx - 20, INTR.cx + 20, 100, 300), 3.0)
    assert pos == pytest.approx((3.0, 0.0))


def test_human_map_position_lateral():
    bbox = (INTR.cx + 100 - 20, INTR.cx + 100 + 20, 100, 300)
    pos = _map_position((0, 0, 0), bbox, 3.0)
    assert pos == pytest.approx((3.0, -0.6))


def test_human_map_position_requires_positive_depth():
    with pytest.raises(ValueError):
        _map_position((0, 0, 0), (0, 10, 0, 10), 0.0)
    with pytest.raises(ValueError, match="depth must be positive"):
        _map_position((0, 0, 0), (0, 10, 0, 10), math.nan)
    # A box centred on cx would put an infinite range at (nan, nan).
    with pytest.raises(ValueError, match="depth must be positive and finite, got inf"):
        _map_position((0, 0, 0), (INTR.cx - 20, INTR.cx + 20, 100, 300), math.inf)


@given(
    cx=st.floats(-3, 3),
    cy=st.floats(-3, 3),
    yaw=st.floats(-math.pi, math.pi),
    depth=st.floats(1.5, 8.0),
    lateral=st.floats(-1.0, 1.0),
)
@settings(max_examples=80)
def test_human_map_position_roundtrips_projection(cx, cy, yaw, depth, lateral):
    c, s = math.cos(yaw), math.sin(yaw)
    world = (cx + depth * c + lateral * s, cy + depth * s - lateral * c)
    u, v, z = project_point(INTR, (cx, cy, yaw), (world[0], world[1], 1.7))
    recovered = _map_position((cx, cy, yaw), (u - 30, u + 30, v, v + 100), z)
    assert recovered[0] == pytest.approx(world[0], abs=1e-9)
    assert recovered[1] == pytest.approx(world[1], abs=1e-9)
    # and the reverse: re-projecting the recovered point lands on the same column
    u2, _, _ = project_point(INTR, (cx, cy, yaw), (recovered[0], recovered[1], 1.7))
    assert abs(u2 - u) < 0.5


# ---------------------------------------------------------------------------
# occlusion classification and pair inference


def test_classify_visibility_rule():
    region = (100.0, 200.0, 0.0, 400.0)
    # inside seen, inside unseen, outside either way, and the inclusive column bounds
    u = np.array([150.0, 150.0, 300.0, 300.0, 100.0, 200.0, 99.9, 200.1])
    seen = np.array([True, False, True, False, True, False, True, False])
    front, behind = classify_occlusion(u, seen, region)
    assert front.tolist() == [True, False, False, False, True, False, False, False]
    assert behind.tolist() == [False, True, False, False, False, True, False, False]


def _pass_pair(human_depth, *candidates):
    """``infer_pass_pair`` over (feature id, label, depth) candidates, as (front id, behind id) or None."""
    ids = np.array([fid for fid, _, _ in candidates], dtype=np.int64)
    labels = [label for _, label, _ in candidates]
    depths = np.array([depth for _, _, depth in candidates], dtype=float)
    front = np.array([label is FRONT for label in labels], dtype=bool)
    pair = infer_pass_pair(ids, depths, front, ~front, human_depth)
    return None if pair is None else (ids[pair[0]].item(), ids[pair[1]].item())


def test_infer_pass_pair_single_candidates():
    assert _pass_pair(4.0, (7, FRONT, 2.5), (12, BEHIND, 6.0)) == (7, 12)


def test_infer_pass_pair_tightest_bracket():
    candidates = [(7, FRONT, 2.5), (9, FRONT, 3.5), (12, BEHIND, 6.0), (4, BEHIND, 5.0)]
    assert _pass_pair(4.0, *candidates) == (9, 4)


def test_infer_pass_pair_requires_both_sides():
    assert _pass_pair(4.0, (7, FRONT, 2.5)) is None


def test_infer_pass_pair_rejects_nonstraddling():
    # 7 is "front" but deeper than the human
    assert _pass_pair(4.0, (7, FRONT, 4.5), (12, BEHIND, 6.0)) is None


def test_infer_pass_pair_tie_breaks_to_lower_id():
    candidates = [(9, FRONT, 3.0), (7, FRONT, 3.0), (14, BEHIND, 5.0), (12, BEHIND, 5.0)]
    assert _pass_pair(4.0, *candidates) == (7, 12)


@given(
    candidates=st.lists(
        st.tuples(st.sampled_from([FRONT, BEHIND]), st.sampled_from([1.0, 2.5, 3.0, 4.0, 5.0, 6.5])),
        max_size=8,
    ),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=80)
def test_infer_pass_pair_matches_min_key_reference(candidates, order):
    ids = list(range(len(candidates)))
    order.shuffle(ids)
    cands = [(fid, label, depth) for fid, (label, depth) in zip(ids, candidates)]
    human = 4.0
    fronts = [c for c in cands if c[1] is FRONT and c[2] < human]
    behinds = [c for c in cands if c[1] is BEHIND and c[2] > human]
    expected = None
    if fronts and behinds:
        expected = tuple(min(side, key=lambda c: (abs(c[2] - human), c[0]))[0] for side in (fronts, behinds))
    assert _pass_pair(human, *cands) == expected


@given(
    segments=st.lists(
        st.tuples(
            st.sampled_from([2.0, 4.0, 5.0]),
            st.lists(
                st.tuples(
                    st.integers(0, 4), st.booleans(), st.booleans(), st.sampled_from([1.0, 2.5, 3.0, 4.0, 5.0, 6.5])
                ),
                max_size=12,
            ),
        ),
        max_size=6,
    ),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=100)
def test_infer_pass_pairs_matches_one_set_calls(segments, order):
    """Each set's choice is ``infer_pass_pair`` on that set's rows alone, whatever rows surround them."""
    rows = [(s, *row) for s, (_, set_rows) in enumerate(segments) for row in set_rows]
    order.shuffle(rows)  # sets interleave; rows of one set keep no fixed order
    sets = np.array([r[0] for r in rows], dtype=np.intp)
    ids = np.array([r[1] for r in rows], dtype=np.int64)  # repeated ids exercise the row tie-break
    front = np.array([r[2] for r in rows], dtype=bool)
    behind = np.array([r[3] for r in rows], dtype=bool)
    depths = np.array([r[4] for r in rows], dtype=float)
    human_depths = np.array([human for human, _ in segments], dtype=float)
    front_row, behind_row = infer_pass_pairs(sets, ids, depths, front, behind, human_depths)
    assert front_row.shape == behind_row.shape == (len(segments),)
    for s, human in enumerate(human_depths.tolist()):
        (mine,) = np.nonzero(sets == s)
        pair = infer_pass_pair(ids[mine], depths[mine], front[mine], behind[mine], human)
        expected = (-1, -1) if pair is None else (mine[pair[0]], mine[pair[1]])
        assert (front_row[s], behind_row[s]) == expected


def test_ho3_pair_must_be_distinct():
    with pytest.raises(ValueError):
        Ho3Evidence(5, 5, 0)


# ---------------------------------------------------------------------------
# evidence store and rebuild


def test_store_folds_duplicates():
    store = EvidenceStore()
    store.add_sfm(3, 0, (1.0, 0.5))
    store.add_sfm(3, 2, (-0.4, 2.0))  # a later sighting with other geometry logs nothing
    store.add_ho3(1, 2, 0)
    store.add_ho3(1, 2, 0)
    store.add_pfh(0, (1.0, 0.0), 0)
    store.add_pfh(0, (1.0, 0.0), 0)
    assert len(store.records) == 5  # one sfm record, ho3 sightings and trail points kept
    assert [r.feature_id for r in store.records if isinstance(r, SfmEvidence)] == [3]
    assert [r for r in store.records if isinstance(r, Ho3Evidence)] == [Ho3Evidence(1, 2, 0)] * 2
    assert store.landmarks == {3: SfmEvidence(3, 0, (1.0, 0.5))}  # the first sighting's geometry
    assert store.landmarks[3] is store.records[0]


def test_repeated_ho3_sighting_rebuilds_the_same_cells():
    # A band marked twice is the same band.
    base = new_map(0, 0, 3, 6, 0.1)
    once, twice = EvidenceStore(), EvidenceStore()
    for store in (once, twice):
        store.add_sfm(1, 0, (1.0, 0.5))
        store.add_sfm(2, 0, (1.0, 2.5))
    once.add_ho3(1, 2, 0)
    for _ in range(2):
        twice.add_ho3(1, 2, 0)
    maps = [rebuild_map(store, {0: Pose2()}, base, ("ho3",), TRAILS_ON_TOP, RADII) for store in (once, twice)]
    assert (maps[0].cells == int(CellState.TRAVERSABLE)).any()
    assert np.array_equal(maps[0].cells, maps[1].cells)


def test_rebuild_empty_store_all_unknown():
    base = new_map(0, 0, 3, 6, 0.1)
    out = rebuild_map(EvidenceStore(), {0: Pose2()}, base, ALL_LAYERS, TRAILS_ON_TOP, RADII)
    assert (out.cells == int(CellState.UNKNOWN)).all()


def test_rebuild_single_landmark_disk():
    base = new_map(0, 0, 3, 3, 0.1)
    store = EvidenceStore()
    store.add_sfm(0, 0, (1.0, 1.0))
    snapshot = {0: Pose2()}
    out = rebuild_map(store, snapshot, base, ("sfm",), TRAILS_ON_TOP, RADII)
    expected = paint_expected_map(store.records, snapshot, base, ("sfm",), TRAILS_ON_TOP, RADII)
    assert (out.cells == expected).all()
    assert out.state(*out.world_to_cell(1.0, 1.0)) is CellState.UNTRAVERSABLE
    assert out.state(*out.world_to_cell(2.6, 2.6)) is CellState.UNKNOWN


def test_rebuild_trail_joins_consecutive_points():
    base = new_map(0, 0, 3, 3, 0.1)
    store = EvidenceStore()
    store.add_pfh(0, (0.5, 0.5), track_id=0)
    store.add_pfh(0, (2.5, 0.5), track_id=0)
    out = rebuild_map(store, {0: Pose2()}, base, ("pfh",), TRAILS_ON_TOP, RADII)
    # the joining band covers the midpoint between the two trail points
    assert out.state(*out.world_to_cell(1.5, 0.5)) is CellState.TRAVERSABLE


def test_rebuild_separate_tracks_not_joined():
    base = new_map(0, 0, 3, 3, 0.1)
    store = EvidenceStore()
    store.add_pfh(0, (0.5, 0.5), track_id=0)
    store.add_pfh(0, (2.5, 0.5), track_id=1)
    out = rebuild_map(store, {0: Pose2()}, base, ("pfh",), TRAILS_ON_TOP, RADII)
    assert out.state(*out.world_to_cell(1.5, 0.5)) is CellState.UNKNOWN


def test_rebuild_intersection_rule():
    base = new_map(0, 0, 3, 3, 0.1)
    snapshot = {0: Pose2()}
    store = EvidenceStore()
    store.add_sfm(1, 0, (1.0, 0.5))
    store.add_sfm(2, 0, (1.0, 2.5))
    store.add_pfh(0, (0.2, 1.5), track_id=0)  # trail blob near (0.2, 1.5)
    store.add_pfh(0, (1.0, 1.5), track_id=0)  # extends to band crossing point
    store.add_ho3(1, 2, 0)  # vertical passage band at x=1.0
    both = rebuild_map(store, snapshot, base, ("pfh", "ho3"), TRAILS_ON_TOP, RADII)
    # traversable only where trail and passage band overlap
    assert both.state(*both.world_to_cell(1.0, 1.5)) is CellState.TRAVERSABLE
    assert both.state(*both.world_to_cell(0.2, 1.5)) is CellState.UNKNOWN  # trail only
    assert both.state(*both.world_to_cell(1.0, 0.6)) is CellState.UNKNOWN  # band only
    solo = rebuild_map(store, snapshot, base, ("pfh",), TRAILS_ON_TOP, RADII)
    assert solo.state(*solo.world_to_cell(0.2, 1.5)) is CellState.TRAVERSABLE


def test_rebuild_dangling_references_error():
    base = new_map(0, 0, 1, 1, 0.1)
    store = EvidenceStore()
    store.add_sfm(42, 5, (0.0, 0.0))  # anchored to a keyframe the snapshot lacks
    with pytest.raises(EvidenceError) as err:
        rebuild_map(store, {0: Pose2()}, base, ALL_LAYERS, TRAILS_ON_TOP, RADII)
    assert "42" in str(err.value)
    store2 = EvidenceStore()
    store2.add_pfh(9, (0.0, 0.0), 0)
    with pytest.raises(EvidenceError) as err:
        rebuild_map(store2, {0: Pose2()}, base, ALL_LAYERS, TRAILS_ON_TOP, RADII)
    assert "9" in str(err.value)


def _marked_ends(monkeypatch, store, snapshot, enabled):
    """The (a, b) arrays ``rebuild_map`` hands each layer's rasterizer slot, by layer (hit or miss)."""
    calls = []
    layer_map = evidence._layer_map

    def spy(base, layer, a, b, *args):
        calls.append((np.array(a), np.array(b)))
        return layer_map(base, layer, a, b, *args)

    monkeypatch.setattr(evidence, "_layer_map", spy)
    rebuild_map(store, snapshot, new_map(0, 0, 3, 6, 0.1), enabled, TRAILS_ON_TOP, RADII)
    assert len(calls) == len(enabled)
    return dict(zip(enabled, calls))


def _assert_ends_match_reference(monkeypatch, store, snapshot):
    for enabled in COMBINATIONS:
        got = _marked_ends(monkeypatch, store, snapshot, enabled)
        expected = rebuild_endpoints(store.records, snapshot, enabled)
        for layer in enabled:
            for g, e in zip(got[layer], expected[layer]):
                assert g.shape == e.shape and g.tobytes() == e.tobytes(), (enabled, layer)


def test_rebuild_ends_keep_their_bits_on_a_noisy_run(monkeypatch):
    scene = dataclasses.replace(builtin_config("I"), rng_seed=3, odom_sigma_trans=0.005, odom_sigma_rot=0.0025)
    result = pipeline.run_pipeline(scene)
    snapshot = result.graph.snapshot()
    assert {type(rec) for rec in result.store.records} == {SfmEvidence, PfhEvidence, Ho3Evidence}
    _assert_ends_match_reference(monkeypatch, result.store, snapshot)
    # Poses built from numpy scalars, as a caller's arrays would give them, keep the bits too.
    scalars = {node: Pose2(*map(np.float64, pose.as_tuple())) for node, pose in snapshot.items()}
    assert all(type(p.x) is np.float64 and type(p.y) is np.float64 for p in scalars.values())
    _assert_ends_match_reference(monkeypatch, result.store, scalars)


def test_rebuild_ends_chain_each_track_in_log_order(monkeypatch):
    snapshot = {0: Pose2(0.4, 1.1, 0.7), 1: Pose2(1.9, 3.3, -2.2)}
    store = EvidenceStore()
    store.add_sfm(5, 1, (0.9, 0.1))
    store.add_sfm(2, 1, (0.3, -0.6))
    store.add_pfh(0, (0.1, 0.2), track_id=4)
    store.add_ho3(2, 5, 7)  # mid-log
    store.add_pfh(1, (0.3, 0.1), track_id=7)  # the two tracks interleave
    store.add_pfh(0, (0.5, 0.2), track_id=4)
    store.add_pfh(0, (0.5, 0.2), track_id=4)  # a zero-length step
    store.add_sfm(1, 0, (1.0, 0.5))
    store.add_pfh(1, (0.6, 0.4), track_id=7)
    store.add_ho3(5, 1, 4)
    _assert_ends_match_reference(monkeypatch, store, snapshot)
    a, b = _marked_ends(monkeypatch, store, snapshot, ("pfh",))["pfh"]
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])  # each track's first point
    assert np.array_equal(a[3], b[3]) and np.array_equal(a[3], b[2])  # the repeated point
    # Many points of a few tracks, in shuffled turns: a sort that is not stable would reorder a track.
    rng = np.random.default_rng(5)
    tracks, keyframes, offsets = rng.integers(0, 3, 300), rng.integers(0, 2, 300), rng.uniform(-1, 1, (300, 2))
    for track_id, kf, offset in zip(tracks.tolist(), keyframes.tolist(), offsets.tolist()):
        store.add_pfh(kf, tuple(offset), track_id)
    _assert_ends_match_reference(monkeypatch, store, snapshot)


def test_rebuild_names_a_landmarks_unknown_anchor_and_skips_disabled_layers():
    base = new_map(0, 0, 1, 1, 0.1)
    store = EvidenceStore()
    store.add_sfm(3, 0, (0.5, 0.5))
    store.add_sfm(4, 8, (0.5, 0.5))
    store.add_ho3(3, 4, 0)
    with pytest.raises(EvidenceError, match="landmark 4 anchored to unknown keyframe 8"):
        rebuild_map(store, {0: Pose2()}, base, ("ho3",), TRAILS_ON_TOP, RADII)
    with pytest.raises(EvidenceError, match="landmark 4 anchored to unknown keyframe 8"):
        rebuild_map(store, {0: Pose2()}, base, ("sfm",), TRAILS_ON_TOP, RADII)  # its SfM disk names it too
    # Only the enabled layers' records are resolved: the HO3 end and the dangling ones below are never looked up.
    store.add_ho3(3, 99, 0)  # 99 has no SfM record
    store.add_pfh(9, (0.0, 0.0), 0)
    out = rebuild_map(store, {0: Pose2(), 8: Pose2()}, base, ("sfm",), TRAILS_ON_TOP, RADII)
    assert out.state(*out.world_to_cell(0.5, 0.5)) is CellState.UNTRAVERSABLE
    with pytest.raises(EvidenceError, match="unknown feature 99"):
        rebuild_map(store, {0: Pose2(), 8: Pose2()}, base, ("ho3",), TRAILS_ON_TOP, RADII)
    with pytest.raises(EvidenceError, match="unknown keyframe 9"):
        rebuild_map(store, {0: Pose2(), 8: Pose2()}, base, ("sfm", "pfh"), TRAILS_ON_TOP, RADII)


def test_rebuild_names_the_first_unresolved_id_in_log_order():
    base = new_map(0, 0, 1, 1, 0.1)

    def log(store):
        store.add_sfm(3, 0, (0.5, 0.5))
        store.add_pfh(0, (0.5, 0.5), 0)
        store.add_ho3(3, 77, 0)  # an unknown feature, logged before the ones below
        store.add_sfm(88, 5, (0.5, 0.5))  # an unknown anchor
        store.add_sfm(4, 8, (0.5, 0.5))  # another unknown anchor
        store.add_pfh(6, (0.0, 0.0), 0)  # an unknown keyframe
        return store

    store = log(EvidenceStore())
    with pytest.raises(EvidenceError, match="unknown feature 77"):
        rebuild_map(store, {0: Pose2()}, base, ALL_LAYERS, TRAILS_ON_TOP, RADII)
    with pytest.raises(EvidenceError, match="landmark 88 anchored to unknown keyframe 5"):
        rebuild_map(store, {0: Pose2()}, base, ("sfm", "pfh"), TRAILS_ON_TOP, RADII)
    with pytest.raises(EvidenceError, match="unknown keyframe 6"):
        rebuild_map(store, {0: Pose2()}, base, ("pfh",), TRAILS_ON_TOP, RADII)
    first = EvidenceStore()
    first.add_ho3(4, 3, 0)  # logged before all of the above
    with pytest.raises(EvidenceError, match="landmark 4 anchored to unknown keyframe 8"):
        rebuild_map(log(first), {0: Pose2()}, base, ("pfh", "ho3"), TRAILS_ON_TOP, RADII)


_ADDS = st.lists(
    st.one_of(
        # Repeats log nothing, whatever keyframe and offset they carry.
        st.tuples(st.just("sfm"), st.integers(0, 4), st.integers(0, 3), st.tuples(st.floats(-2, 2), st.floats(-2, 2))),
        st.tuples(st.just("pfh"), st.integers(0, 3), st.tuples(st.floats(-2, 2), st.floats(-2, 2)), st.integers(0, 2)),
        st.tuples(st.just("ho3"), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)),
    ),
    max_size=40,
)


def _assert_columns_project_the_log(store):
    columns, records = store.columns(), store.records
    disks = [rec for rec in records if isinstance(rec, SfmEvidence)]
    trail = [rec for rec in records if isinstance(rec, PfhEvidence)]
    ho3 = [[rec.front_id, rec.behind_id] for rec in records if isinstance(rec, Ho3Evidence)]
    sfm_ids = [rec.feature_id for rec in disks]
    prev, last = [], {}
    for row, rec in enumerate(trail):
        prev.append(last.get(rec.track_id, row))
        last[rec.track_id] = row
    assert columns.sfm_ids.tolist() == [rec.feature_id for rec in records if isinstance(rec, SfmEvidence)]
    assert columns.sfm_keyframes.tolist() == [rec.keyframe_id for rec in disks]
    assert columns.sfm_offsets.shape == (len(disks), 2)
    assert columns.sfm_offsets.tolist() == [list(rec.offset) for rec in disks]
    assert list(store.landmarks.values()) == disks  # one record per feature, in log order
    assert columns.pfh_keyframes.tolist() == [rec.keyframe_id for rec in trail]
    assert columns.pfh_offsets.shape == (len(trail), 2)
    assert columns.pfh_offsets.tolist() == [list(rec.offset) for rec in trail]
    assert columns.pfh_tracks.tolist() == [rec.track_id for rec in trail]
    assert columns.pfh_prev.tolist() == prev
    rows = [[sfm_ids.index(fid) if fid in sfm_ids else -1 for fid in pair] for pair in ho3]
    assert columns.ho3_rows.shape == (len(ho3), 2) and columns.ho3_rows.tolist() == rows


@given(adds=_ADDS)
@settings(max_examples=60, deadline=None)
def test_store_columns_are_the_log_in_order(adds):
    store = EvidenceStore()
    _assert_columns_project_the_log(store)
    for kind, *args in adds:
        if kind == "sfm":
            store.add_sfm(*args)
        elif kind == "pfh":
            store.add_pfh(*args)
        elif args[0] != args[1]:
            store.add_ho3(*args)
        _assert_columns_project_the_log(store)  # derived after each add, so the next add must drop them


def test_an_add_after_a_rebuild_shows_in_the_next_rebuild():
    snapshot = {0: Pose2(0.5, 0.5, 0.3), 1: Pose2(1.5, 4.0, -1.0)}
    base = new_map(0, 0, 3, 6, 0.1)
    store = EvidenceStore()
    adds = [
        (store.add_sfm, (1, 0, (1.0, 0.5))),
        (store.add_pfh, (0, (0.2, 1.5), 0)),
        (store.add_sfm, (2, 0, (1.0, 2.5))),
        (store.add_ho3, (1, 2, 0)),
        (store.add_pfh, (0, (1.0, 1.5), 0)),  # the trail now crosses the band
        (store.add_sfm, (3, 1, (0.4, -0.2))),
        (store.add_ho3, (3, 2, 1)),
        (store.add_pfh, (1, (0.3, 0.3), 1)),
    ]
    orders = (TRAILS_ON_TOP, pipeline.PipelineParams().priority)
    maps = {
        (layers, order): rebuild_map(store, snapshot, base, layers, order, RADII).cells
        for layers in COMBINATIONS
        for order in orders
    }
    for add, args in adds:
        add(*args)
        changed = dict.fromkeys(orders, False)
        for (layers, order), before in maps.items():
            out = rebuild_map(store, snapshot, base, layers, order, RADII)
            expected = paint_expected_map(store.records, snapshot, base, layers, order, RADII)
            assert np.array_equal(out.cells, expected), (add.__name__, args, layers, order)
            changed[order] |= not np.array_equal(out.cells, before)
            maps[layers, order] = out.cells
        assert all(changed.values()), (add.__name__, args)  # the record reaches a map, so stale columns would show
    # The two orders paint some combination differently, so the painter follows the order it is given.
    assert any(not np.array_equal(maps[layers, orders[0]], maps[layers, orders[1]]) for layers in COMBINATIONS)


def _noisy_t_run(run):
    scene = dataclasses.replace(builtin_config("T"), rng_seed=3, odom_sigma_trans=0.005, odom_sigma_rot=0.0025)
    return run(scene, pipeline.PipelineParams(enable_closures=False))


def _map_bytes(maps):
    return [(m.origin, m.resolution, m.cells.shape, m.cells.tobytes()) for m in maps]


def test_layer_reuse_cannot_be_seen(run_shared):
    result = _noisy_t_run(run_shared)
    in_order = _map_bytes([pipeline.build_combo_map(result, layers) for layers in COMBINATIONS])
    reverse = _map_bytes([pipeline.build_combo_map(result, layers) for layers in COMBINATIONS[::-1]])
    cold = []
    for layers in COMBINATIONS:
        evidence._SLOTS.clear()
        cold.append(pipeline.build_combo_map(result, layers))
    assert in_order == reverse[::-1] == _map_bytes(cold)
    assert len({cells for *_, cells in in_order}) == len(COMBINATIONS)

    # Writing into a returned map cannot reach the next rebuild, and the held rasters cannot be written.
    for m in cold:
        m.cells[:] = int(CellState.UNTRAVERSABLE)
    assert _map_bytes([pipeline.build_combo_map(result, layers) for layers in COMBINATIONS]) == in_order
    assert set(evidence._SLOTS) == {"sfm", "pfh", "ho3"}
    for _key, cells in evidence._SLOTS.values():
        with pytest.raises(ValueError):
            cells[0, 0] = int(CellState.UNKNOWN)

    # After optimize moves the poses, every layer misses: the next rebuild is the painter's.
    base = new_map(*result.config.bounds)
    stale = rebuild_map(result.store, result.graph.snapshot(), base, ALL_LAYERS, TRAILS_ON_TOP, RADII)
    older, newer, rel = pipeline.truth_closures(result.truth, result.params)[0]
    result.graph.add_loop_closure(older, newer, rel)
    assert result.graph.optimize().updated
    snapshot = result.graph.snapshot()
    out = rebuild_map(result.store, snapshot, base, ALL_LAYERS, TRAILS_ON_TOP, RADII)
    expected = paint_expected_map(result.store.records, snapshot, base, ALL_LAYERS, TRAILS_ON_TOP, RADII)
    assert np.array_equal(out.cells, expected)
    assert not np.array_equal(out.cells, stale.cells)


def test_layer_map_returns_the_held_raster_uncopied():
    base = new_map(0, 0, 3, 6, 0.1)
    a, b = np.array([[1.0, 1.0]]), np.array([[2.0, 3.0]])
    first = evidence._layer_map(base, "pfh", a, b, 0.2, CellState.TRAVERSABLE)
    again = evidence._layer_map(base, "pfh", a.copy(), b.copy(), 0.2, CellState.TRAVERSABLE)
    assert again.cells is first.cells is evidence._SLOTS["pfh"][1]
    assert not first.cells.flags.writeable and (first.cells == int(CellState.TRAVERSABLE)).any()


def test_rebuild_matches_painter_after_optimization_small():
    """Dual-path check: evidence ingested against drifted poses, then re-anchored."""
    from travmap.posegraph import PoseGraph

    rng = np.random.default_rng(7)
    graph = PoseGraph()
    store = EvidenceStore()
    true_poses = [Pose2()]
    fid = 0
    for k in range(8):
        odom_true = Pose2(0.5, 0.0, math.pi / 2 if (k + 1) % 2 == 0 else 0.0)
        true_poses.append(se2_compose(true_poses[-1], odom_true))
        noisy = Pose2(
            odom_true.x + rng.normal(0, 0.03),
            odom_true.y + rng.normal(0, 0.03),
            odom_true.theta + rng.normal(0, 0.02),
        )
        kf = graph.add_keyframe(noisy)
        store.add_sfm(fid, kf, (0.8, 0.3))
        fid += 1
        store.add_sfm(fid, kf, (0.8, -0.3))
        fid += 1
        store.add_pfh(kf, (0.6, 0.0), track_id=0)
        store.add_ho3(fid - 2, fid - 1, 0)
    closing = se2_compose(se2_inverse(true_poses[4]), true_poses[8])
    graph.add_loop_closure(4, 8, closing)
    event = graph.optimize()
    assert event.updated  # the noise was real, poses moved

    base = new_map(-2, -2, 3, 3, 0.1)
    out = rebuild_map(store, graph.snapshot(), base, ALL_LAYERS, TRAILS_ON_TOP, RADII)
    expected = paint_expected_map(store.records, graph.snapshot(), base, ALL_LAYERS, TRAILS_ON_TOP, RADII)
    assert (out.cells == expected).all()


_HALF_WIDTHS = st.sampled_from([0.0, 0.04, 0.1, 0.17, 0.45])  # 0, under, at and above one 0.1 m cell
# Mostly within reach of the 3 x 2 m grid, sometimes far past it.
_OFFSETS = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)) | st.tuples(st.floats(-6, 6), st.floats(-6, 6))
_REPEATED_OFFSETS = st.sampled_from([(0.1, 0.2), (0.5, -0.3), (1.3, 0.4)])
_RECORDS = st.lists(
    st.one_of(
        st.tuples(st.just("sfm"), st.integers(0, 5)),
        # Few keyframes and a short offset menu make repeated trail points (zero-length steps) common.
        st.tuples(st.just("pfh"), st.integers(0, 2), _REPEATED_OFFSETS | _OFFSETS, st.integers(0, 2)),
        st.tuples(st.just("ho3"), st.integers(0, 5), st.integers(0, 5), st.integers(0, 2)),
    ),
    min_size=6,
    max_size=30,
)


@given(
    poses=st.lists(st.tuples(st.floats(-1, 2), st.floats(-0.5, 1.5), st.floats(-3.14, 3.14)), min_size=3, max_size=3),
    anchors=st.lists(st.tuples(st.integers(0, 2), _OFFSETS), min_size=6, max_size=6),
    records=_RECORDS,
    enabled=st.sampled_from(COMBINATIONS),
    radii=st.tuples(_HALF_WIDTHS, _HALF_WIDTHS, _HALF_WIDTHS),
)
@settings(max_examples=50, deadline=None)
def test_rebuild_matches_painter_on_random_stores(poses, anchors, records, enabled, radii):
    snapshot = {kf: Pose2(*pose) for kf, pose in enumerate(poses)}
    store = EvidenceStore()
    for kind, *args in records:
        if kind == "sfm":
            store.add_sfm(args[0], *anchors[args[0]])
        elif kind == "pfh":
            store.add_pfh(*args)
        elif args[0] != args[1]:
            for fid in args[:2]:  # each landmark is logged before the first HO3 record naming it
                store.add_sfm(fid, *anchors[fid])
            store.add_ho3(*args)
    base = new_map(-1.0, -0.5, 2.0, 1.5, 0.1)
    params = RebuildParams(*radii)
    out = rebuild_map(store, snapshot, base, enabled, TRAILS_ON_TOP, params)
    expected = paint_expected_map(store.records, snapshot, base, enabled, TRAILS_ON_TOP, params)
    assert np.array_equal(out.cells, expected)


def test_export_log_format():
    store = EvidenceStore()
    store.add_sfm(4, 2, (0.75, 0.5))
    store.add_pfh(2, (1.5, -0.25), 3)
    store.add_ho3(7, 9, 3)
    store.add_ho3(7, 9, 3)
    lines = export_evidence_log(store).splitlines()
    assert lines[0] == "SFM 4"
    assert lines[1] == "PFH 2 1.5 -0.25 3"
    assert lines[2:] == ["HO3 7 9 3", "HO3 7 9 3"]


def test_export_log_empty():
    assert export_evidence_log(EvidenceStore()) == ""
