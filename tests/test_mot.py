import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from travmap.mot import (
    HumanTrack,
    TrackPoint,
    TrackState,
    filter_turning_frames,
    prune,
    step,
)
from travmap.scenesim import AgentTrajectory, CameraIntrinsics, SceneConfig, simulate_sequence


def det(cu, frame_index=1, cv=100.0, size=40.0):
    return TrackPoint(frame_index, (cu - size / 2, cu + size / 2, cv - size / 2, cv + size / 2))


def seeded_track(track_id, cu, frame_index=0):
    t = HumanTrack(track_id)
    t.history.append(det(cu, frame_index))
    t.consecutive_hits = 1
    return t


def test_step_matches_within_gate():
    tracks = [seeded_track(0, 120.0)]
    point = det(125.0)
    step(tracks, [point], gate=80.0)
    assert len(tracks) == 1
    assert tracks[0].track_id == 0
    assert len(tracks[0].history) == 2
    assert tracks[0].last is point  # the tracker keeps the point it is given
    assert tracks[0].missed_count == 0


def test_step_spawns_new_track_beyond_gate():
    tracks = [seeded_track(0, 120.0)]
    step(tracks, [det(620.0)], gate=80.0)
    assert [t.track_id for t in tracks] == [0, 1]
    assert tracks[0].missed_count == 1
    assert tracks[1].state is TrackState.TENTATIVE


def test_step_zero_detections_only_misses():
    tracks = [seeded_track(0, 120.0), seeded_track(1, 300.0)]
    step(tracks, [])
    assert [t.track_id for t in tracks] == [0, 1]
    assert all(t.missed_count == 1 for t in tracks)


def test_step_greedy_prefers_nearest():
    tracks = [seeded_track(0, 100.0), seeded_track(1, 200.0)]
    step(tracks, [det(195.0), det(110.0)])
    assert tracks[0].last.bbox == det(110.0).bbox
    assert tracks[1].last.bbox == det(195.0).bbox


def test_partial_matching_no_double_assignment():
    tracks = [seeded_track(0, 100.0), seeded_track(1, 120.0)]
    step(tracks, [det(110.0)])
    matched = [t for t in tracks if t.matched_at(1)]
    assert len(matched) == 1


def test_confirmation_after_three_hits():
    tracks: list[HumanTrack] = []
    for k in range(3):
        step(tracks, [det(100.0 + k, k)])
        expected = TrackState.TENTATIVE if k < 2 else TrackState.CONFIRMED
        assert tracks[0].state is expected


def test_miss_resets_confirmation_streak():
    tracks: list[HumanTrack] = []
    step(tracks, [det(100.0, 0)])
    step(tracks, [det(100.0, 1)])
    step(tracks, [])
    step(tracks, [det(100.0, 3)])
    assert tracks[0].state is TrackState.TENTATIVE


def test_dead_tracks_never_rematch():
    tracks = [seeded_track(0, 100.0)]
    tracks[0].state = TrackState.DEAD
    step(tracks, [det(100.0)])
    assert len(tracks) == 2
    assert tracks[1].track_id == 1
    assert len(tracks[0].history) == 1


def test_prune_boundary():
    t15 = seeded_track(0, 100.0)
    t15.missed_count = 15
    t16 = seeded_track(1, 100.0)
    t16.missed_count = 16
    prune([t15, t16], max_missed=15)
    assert t15.state is not TrackState.DEAD
    assert t16.state is TrackState.DEAD


def test_step_rejects_bad_gate():
    for gate in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="gate must be positive"):
            step([seeded_track(0, 120.0)], [det(125.0)], gate=gate)


def test_prune_rejects_bad_limit():
    with pytest.raises(ValueError):
        prune([], max_missed=0)
    with pytest.raises(ValueError, match="max_missed must be >= 1"):
        prune([seeded_track(0, 120.0)], max_missed=math.nan)


def test_fresh_id_is_max_plus_one():
    tracks = [seeded_track(0, 100.0), seeded_track(7, 300.0)]
    step(tracks, [det(500.0)])
    assert tracks[-1].track_id == 8


class _Frame:
    def __init__(self, omega):
        self.angular_speed = omega


def test_filter_turning_frames():
    frames = [_Frame(0.0), _Frame(0.5), _Frame(-0.2), _Frame(-0.31)]
    assert filter_turning_frames(frames, omega_max=0.3) == [True, False, True, False]
    assert filter_turning_frames(frames, omega_max=math.inf) == [True] * 4
    with pytest.raises(ValueError):
        filter_turning_frames(frames, omega_max=0.0)


@given(
    streams=st.lists(
        st.lists(st.floats(0, 600), max_size=4),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50)
def test_track_ids_unique_and_matching_partial(streams):
    tracks: list[HumanTrack] = []
    for frame_index, centers in enumerate(streams):
        dets = [det(c, frame_index) for c in centers]
        step(tracks, dets, gate=50.0)
        prune(tracks, max_missed=3)
        matched = [t for t in tracks if t.matched_at(frame_index)]
        # a detection is matched to at most one track
        assert len({id(t) for t in matched}) == len(matched)
        assert len(matched) <= len(dets)
    ids = [t.track_id for t in tracks]
    assert len(ids) == len(set(ids))


def test_single_human_no_occlusion_one_confirmed_track():
    intr = CameraIntrinsics(f=400.0, cx=320.0, cy=360.0, image_width=640, image_height=720, cam_height=0.85)
    human = AgentTrajectory(
        "human", ((0.0, (3.0, -1.0, math.pi / 2)), (20.0, (3.0, 1.0, math.pi / 2))), body_height=1.7
    )
    scene = SceneConfig(
        bounds=(0, -3, 8, 3),
        obstacles=[],
        humans=[human],
        robot=AgentTrajectory("robot", ((0.0, (0, 0, 0)), (20.0, (0.01, 0, 0)))),
        intrinsics=intr,
        camera_yaw_offset=0.0,
    )
    frames, _ = simulate_sequence(scene)
    assert all(len(f.detections) == 1 for f in frames)
    tracks: list[HumanTrack] = []
    for frame in frames:
        points = [TrackPoint(frame.frame_index, (d.x_min, d.x_max, d.y_min, d.y_max)) for d in frame.detections]
        step(tracks, points)
        prune(tracks)
    confirmed = [t for t in tracks if t.state is TrackState.CONFIRMED]
    assert len(tracks) == 1
    assert len(confirmed) == 1
    assert len(confirmed[0].history) == len(frames)
