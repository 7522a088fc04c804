"""End-to-end mapping pipeline and the ablation harness.

``run_pipeline`` simulates a scene, then passes the frames, which hold only
sensor output, to ``ingest`` with the truth oracles' outputs: the first true
camera pose, ``truth_calibration`` and ``truth_closures``.  Last, it attaches
the scene and ground truth to ingest's result and joins the truth once, for the
diagnostics.  ``ingest`` reads no ground truth and no scene configuration.  It
runs in three stages:

1. the array pass (``_array_pass``), which needs no loop over frames:
   odometry accumulates along every keyframe interval at once; the keyframes
   alone are walked, each added to the pose graph (keyframe k is frame
   k * ``keyframe_stride``) and each closure it ends added and optimized at
   once, with the poses kept before each closure (the closure epochs'); then
   every frame's pose estimate, and every detection's range, map position
   and trail offset in its keyframe's frame, each in one array expression;
2. tracking (``_track_humans``), the one loop over frames: each frame's
   track points go to the tracker, which returns the tracks it matched; the
   confirmed ones whose point has a range are the tracking result, one row
   per (frame, detection, track), and each row is a position row;
3. the evidence layers, built from the tracking result, then logged at once:
   - landmarks, one keyframe at a time: the features seen for the first
     time, found by a mask over feature ids, anchored to the keyframe as SfM
     records;
   - trails: each row of a kept frame, its precomputed offset as PfH;
   - pass-between: each row of a kept frame after a kept frame is one job
     (frame, detection row, closure epoch, landmark count); each closure
     epoch's landmark table is built once, from its poses, and landmarks are
     ordered against each job's human in blocks of one epoch's jobs, one
     numpy pass per block that reads each frame once and projects only the
     candidates seen in the human's columns or unseen now within its box's
     rows; each straddling pair is a pair row, logged as HO3;
   - the merge (``_log``): the layers go into the log once, sorted by frame,
     and within a frame SfM, then PfH, then HO3.

Turning frames are not kept: they feed the pose graph and the landmarks,
but no trail or pass-between evidence.

An ablation run maps, then scores.  ``map_scene`` regenerates one map per
module combination from the evidence at the current pose snapshot, and
``score_maps`` scores each against the ground-truth map on one shared query
set, so combination scores differ only because of the modules, not sampling.

Loop-closure *detection* is out of scope: ``truth_closures``, the closure
oracle, takes the pairs from the simulator's ground truth (a keyframe
revisiting a previously mapped spot), and each closure triggers an immediate
optimization event.
"""

from __future__ import annotations

import math
import pathlib
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, groupby, pairwise
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import mot
from .evidence import (
    ALL_LAYERS,
    EvidenceStore,
    OcclusionClass,
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
    landmark_worlds,
    pose_table,
    rebuild_map,
)
from .gridmap import LayerPriority, TraversabilityMap, export_pgm, new_map
from .posegraph import (
    OptimizationEvent,
    Pose2,
    PoseGraph,
    _compose_rows,
    _inverse_rows,
    _transform_rows,
    _wrap_rows,
    se2_compose,
    se2_inverse,
)
from .quality import (
    COMBINATION_ORDER,
    COMBINATIONS,
    LAYER_LABELS,
    JourneyQuery,
    QualityReport,
    ReportRow,
    combo_label,
    evaluate_map,
    oracle_plans,
    sample_queries,
)
from .scenario import load_scenario
from .scenesim import (
    CameraIntrinsics,
    FrameObservation,
    GroundTruth,
    SceneConfig,
    check_bounds,
    ground_truth_map,
    simulate_sequence,
)

__all__ = [
    "PipelineParams",
    "PipelineResult",
    "RunConfig",
    "COMBINATIONS",
    "combo_label",
    "combo_layers",
    "parse_combos",
    "ingest",
    "run_pipeline",
    "truth_calibration",
    "truth_closures",
    "build_combo_map",
    "map_scene",
    "score_maps",
    "write_map_artifacts",
    "run_ablation",
]

_LAYERS_BY_LABEL = {label.lower(): layer for layer, label in LAYER_LABELS.items()}

#: Candidate features must sit this far (px) inside the box: the boundary
#: column is where a sight line merely grazes the body, which orders nothing.
_REGION_MARGIN_PX = 1.0

#: Pass-between jobs (one tracked human in one frame each) computed in one
#: numpy pass; bounds the pass's arrays.  One closure epoch takes up to 1,493
#: jobs (T), and one pass per epoch raised an I+L+T ablation's peak RSS at
#: seed 0 from 57 to 70 MB, for no measured time gain.
_PASS_BLOCK = 64

#: Body height (m) assumed when turning a box's apparent height into depth.
_BODY_HEIGHT = 1.70

#: Ranged detections the offline scale calibration takes.
_CALIBRATION_SAMPLES = 25


def combo_layers(label: str) -> tuple[str, ...]:
    layers = []
    for part in label.split("+"):
        layer = _LAYERS_BY_LABEL.get(part.strip().lower())
        if layer is None:
            raise ValueError(f"unknown module {part!r} in combination {label!r}")
        layers.append(layer)
    if not layers or len(set(layers)) != len(layers):
        raise ValueError(f"bad combination {label!r}")
    return tuple(layer for layer in ALL_LAYERS if layer in layers)


def parse_combos(labels: Sequence[str], priority: LayerPriority) -> tuple[tuple[str, ...], ...]:
    """Each label's layers; rejects unknown or repeated combinations and layers ``priority`` does not rank."""
    combos = tuple(combo_layers(label) for label in labels)
    if not combos:
        raise ValueError("need at least one module combination")
    if len(set(combos)) != len(combos):
        raise ValueError(f"duplicate module combination in {','.join(labels)!r}")
    for layers in combos:
        for layer in layers:
            priority.rank(layer)
    return combos


@dataclass
class PipelineParams:
    keyframe_stride: int = 10
    omega_max: float = mot.DEFAULT_OMEGA_MAX
    gate_px: float = mot.DEFAULT_GATE_PX
    enable_closures: bool = True
    closure_radius: float = 0.5
    closure_min_gap: int = 20  # keyframes, not time or distance: keyframe_stride changes what closes
    rebuild: RebuildParams = field(default_factory=RebuildParams)
    # SfM on top: humans walk in workspace, so their evidence must not paint a
    # static object's robot-radius ring free.
    priority: LayerPriority = LayerPriority(("pfh", "ho3", "sfm"))

    def __post_init__(self):
        check_bounds(
            ("keyframe_stride", self.keyframe_stride, 1, True),
            ("omega_max", self.omega_max, 0.0, False),
            ("gate_px", self.gate_px, 0.0, False),
            ("closure_radius", self.closure_radius, 0.0, True),
            ("closure_min_gap", self.closure_min_gap, 1, True),
        )
        unknown = [layer for layer in self.priority.order if layer not in ALL_LAYERS]
        if unknown:
            raise ValueError(f"unknown layers {unknown} in priority; layers are {ALL_LAYERS}")


class PositionDiag(NamedTuple):
    """Per-detection position estimate next to its ground truth."""

    frame_index: int
    track_id: int
    agent_index: int
    estimated: tuple[float, float]
    true_world: tuple[float, float]
    estimated_depth: float
    true_depth: float


class OcclusionDiag(NamedTuple):
    """One classified pass-between candidate (for the depth-oracle cross-check)."""

    frame_index: int
    track_id: int
    agent_index: int
    feature_id: int
    label: OcclusionClass
    u: float
    predicted_depth: float
    human_depth_estimate: float


class PairDiag(NamedTuple):
    """Emitted pass-between pair with the depths that justified it."""

    frame_index: int
    track_id: int
    front_id: int
    behind_id: int
    front_depth: float
    behind_depth: float
    human_depth: float


@dataclass
class PipelineResult:
    """What ``ingest`` makes of the frames; ``run_pipeline`` attaches ``config`` and ``truth`` and joins the truth in.

    Before the join, a ``position_diags`` row is (frame index, track id, its detection's index in the frame,
    position, range) and an ``occlusion_diags`` row lacks its walker."""

    params: PipelineParams
    frames: Sequence[FrameObservation]
    calibration: ScaleCalibration
    keep_mask: list[bool]
    graph: PoseGraph
    store: EvidenceStore = field(default_factory=EvidenceStore)
    tracks: list[mot.HumanTrack] = field(default_factory=list)
    events: list[OptimizationEvent] = field(default_factory=list)
    position_diags: list[PositionDiag] = field(default_factory=list)
    occlusion_diags: list[OcclusionDiag] = field(default_factory=list)
    pair_diags: list[PairDiag] = field(default_factory=list)
    config: Optional[SceneConfig] = None
    truth: Optional[GroundTruth] = None


def truth_calibration(
    frames: Sequence[FrameObservation], truth: GroundTruth, intr: CameraIntrinsics
) -> ScaleCalibration:
    """The calibration oracle: a ``ScaleCalibration`` against ranged detections, as an offline pre-step.

    The simulator's true range plays the role of the externally measured
    distance the scale is calibrated against.
    """
    h_px = apparent_height_px([det.y_min for frame in frames for det in frame.detections], intr, _BODY_HEIGHT)
    ranges = [depth for seen in truth.detected for _, depth in seen]
    (ranged,) = np.nonzero(~np.isnan(h_px[: len(ranges)]))
    ranged = ranged[:_CALIBRATION_SAMPLES]
    samples = [(ranges[i], intr.f, h, _BODY_HEIGHT) for i, h in zip(ranged.tolist(), h_px[ranged].tolist())]
    return calibrate_scale(samples) if samples else ScaleCalibration(1.0)


def truth_closures(truth: GroundTruth, params: PipelineParams) -> list[tuple[int, int, Pose2]]:
    """The closure oracle: each keyframe pair ``(older, newer, rel)`` the ground truth closes, by newer, then older.

    Keyframe k is frame k * ``keyframe_stride``.  A pair closes a loop when
    the keyframes are at least ``closure_min_gap`` apart and their true
    positions lie within ``closure_radius``; ``rel`` is the newer keyframe's
    true pose in the older one's frame.

    The gap counts keyframes, so a smaller stride shortens it in time and
    distance: at stride 5 the pairs on T number 261 (24 at stride 10), and
    ingest closes (44, 64), two poses 0.5 m apart at the first corner.
    """
    poses = truth.camera_poses[:: params.keyframe_stride]
    return [
        (older, newer, se2_compose(se2_inverse(Pose2(*poses[older])), Pose2(*poses[newer])))
        for newer, (px, py, _) in enumerate(poses)
        for older in range(newer - params.closure_min_gap + 1)
        if math.hypot(px - poses[older][0], py - poses[older][1]) <= params.closure_radius
    ]


class _Rows(NamedTuple):
    """What ingest's array pass computes, by frame and by detection.

    Detections are numbered over all frames in order: frame fi's are rows ``first[fi]`` to ``first[fi + 1]``.
    """

    poses: np.ndarray  # (N, 3) each frame's pose estimate
    epoch: list[int]  # each frame's closure epoch: the closure events up to its keyframe
    epoch_poses: list[dict[int, Pose2]]  # each epoch's poses: the graph before each closure, then the final graph
    first: list[int]  # N + 1 detection rows
    points: list[mot.TrackPoint]  # each detection's track point: its box, and its range and position if it has a range
    trails: list[Optional[tuple[float, float]]]  # each ranged detection's position in its keyframe's frame
    regions: np.ndarray  # (D, 5) each detection's pass-between region: its columns inside the margin, its rows, its range
    passable: list[bool]  # each detection's region keeps a column


def _poses(res: PipelineResult, closures: Sequence[tuple[int, int, Pose2]]) -> tuple:
    """Keyframes and loop closure, then every frame's pose estimate.

    Odometry accumulates along each keyframe interval, every interval at
    once, one ``_compose_rows`` per position inside the stride.  Keyframe k
    (frame k * stride) then joins the graph, and the first closure it ends
    is added and optimized at once, once the last closure is
    ``closure_min_gap`` keyframes back.  A frame's estimate is its
    keyframe's pose at that keyframe composed with the odometry since, in
    one ``_compose_rows``.  Returns the frames' estimates (N, 3), each
    keyframe's pose at its own keyframe (after the closure it ends), each
    frame's closure epoch, and each epoch's poses.
    """
    frames, params, graph = res.frames, res.params, res.graph
    stride, n = params.keyframe_stride, len(frames)
    steps = np.zeros((-(-(n - 1) // stride) * stride, 3))  # frames 1.., padded to whole intervals
    if n > 1:
        steps[: n - 1] = [frame.odometry for frame in frames[1:]]
    steps[:, 2] = _wrap_rows(steps[:, 2])  # as ``Pose2`` wraps it
    steps = steps.reshape(-1, stride, 3)
    since = np.zeros_like(steps)  # since[m, j]: the odometry from keyframe m to frame m * stride + j + 1
    total = np.zeros((len(steps), 3))
    for j in range(stride):
        total = since[:, j] = _compose_rows(total, steps[:, j])

    partners: dict[int, tuple[int, Pose2]] = {}
    for older, newer, rel in closures:
        partners.setdefault(newer, (older, rel))
    last_closure_kf = -10**9
    keyframe_poses, epochs, epoch_poses = [graph.pose(0).as_tuple()], [0], []
    for kf, odom in enumerate(since[: (n - 1) // stride, -1].tolist(), start=1):
        graph.add_keyframe(Pose2(*odom))
        if kf in partners and kf - last_closure_kf >= params.closure_min_gap:
            older, rel = partners[kf]
            epoch_poses.append(graph.snapshot())
            graph.add_loop_closure(older, kf, rel)
            res.events.append(graph.optimize())
            last_closure_kf = kf
        keyframe_poses.append(graph.pose(kf).as_tuple())
        epochs.append(len(res.events))
    epoch_poses.append(graph.snapshot())

    odometry = np.zeros((n, 3))  # a keyframe is no step past itself
    odometry[1:] = since.reshape(-1, 3)[: n - 1]
    odometry[stride::stride] = 0.0
    keyframe_of = np.arange(n) // stride
    keyframe_poses = np.array(keyframe_poses)
    poses = _compose_rows(keyframe_poses[keyframe_of], odometry)
    return poses, keyframe_poses, [epochs[k] for k in keyframe_of.tolist()], epoch_poses


def _array_pass(res: PipelineResult, camera: CameraIntrinsics, closures: Sequence[tuple[int, int, Pose2]]) -> _Rows:
    """The array pass: each frame's pose estimate (``_poses``), then each detection's range, position and trail offset.

    A detection has a range when its head is above the horizon.  Its map
    position is placed from its frame's estimate, and its trail offset is
    that position in its keyframe's frame, at the keyframe's own pose.
    """
    poses, keyframe_poses, epoch, epoch_poses = _poses(res, closures)
    frames = res.frames
    counts = [len(frame.detections) for frame in frames]
    at = np.repeat(np.arange(len(frames)), counts)  # each detection's frame
    boxes = [(det.x_min, det.x_max, det.y_min, det.y_max) for frame in frames for det in frame.detections]
    box = np.array(boxes, dtype=float).reshape(-1, 4)
    h_px = apparent_height_px(box[:, 2], camera, _BODY_HEIGHT)
    (ranged,) = np.nonzero(~np.isnan(h_px))
    depth = np.full(len(boxes), np.nan)
    depth[ranged] = estimate_depth(res.calibration, camera.f, _BODY_HEIGHT, h_px[ranged])
    world = human_map_position(poses[at[ranged]], camera, box[ranged], depth[ranged])
    keyframe = at[ranged] // res.params.keyframe_stride
    trail = _transform_rows(_inverse_rows(keyframe_poses)[keyframe], world)

    depths, worlds, trails = [None] * len(boxes), [None] * len(boxes), [None] * len(boxes)
    for i, d, w, t in zip(ranged.tolist(), depth[ranged].tolist(), world.tolist(), trail.tolist()):
        depths[i], worlds[i], trails[i] = d, tuple(w), tuple(t)
    columns = (box[:, 0] + _REGION_MARGIN_PX, box[:, 1] - _REGION_MARGIN_PX)
    regions = np.column_stack((*columns, box[:, 2], box[:, 3], depth))
    return _Rows(
        poses,
        epoch,
        epoch_poses,
        [0, *accumulate(counts)],
        list(map(mot.TrackPoint, at.tolist(), boxes, depths, worlds)),
        trails,
        regions,
        (columns[0] < columns[1]).tolist(),
    )


def _track_humans(res: PipelineResult, rows: _Rows) -> list[tuple[int, int, int]]:
    """Tracking stage, ingest's one loop over frames: each frame's track points go to the tracker.

    Returns each confirmed track matched to a point with a range (the only
    ones the evidence layers use) as (frame, detection row, track id), by
    frame, then in the tracker's order.
    """
    tracked = []
    for fi, (lo, hi) in enumerate(pairwise(rows.first)):
        for d, track in mot.step(res.tracks, rows.points[lo:hi], res.params.gate_px):
            # ``depth`` and ``world`` are both None exactly when the box has no range.
            if track.state is mot.TrackState.CONFIRMED and track.last.depth is not None:
                tracked.append((fi, lo + d, track.track_id))
        mot.prune(res.tracks)
    return tracked


def _landmarks(frames: Sequence[FrameObservation], camera: CameraIntrinsics, stride: int) -> tuple[list, np.ndarray]:
    """Landmark layer: each feature at its first sighting as (frame, SfM record), and each feature id's row in it.

    One keyframe at a time, in keyframe then feature order; the features
    first seen are the visible ones with no row yet (-1).  Not gated by
    turning: the turning filter only withholds human-derived evidence.
    """
    # Feature ids 64 frames at a time: one array of all of them raised an I+L+T ablation's peak RSS by 1.4 MB.
    blocks = (np.concatenate([f.features["feature_id"] for f in frames[i : i + 64]]) for i in range(0, len(frames), 64))
    row = np.full(1 + max(int(ids.max(initial=-1)) for ids in blocks), -1)
    layer = []
    for kf, frame in enumerate(frames[::stride]):
        features = frame.features
        (new,) = np.nonzero(features["visible"] & (row[features["feature_id"]] < 0))
        fids = features["feature_id"][new]
        row[fids] = np.arange(len(layer), len(layer) + len(fids))
        forward, left = camera.floor_offset(features["u"][new], features["depth"][new])
        offsets = zip(forward.tolist(), left.tolist())
        layer += [(kf * stride, SfmEvidence(fid, kf, offset)) for fid, offset in zip(fids.tolist(), offsets)]
    return layer, row


def _landmark_table(landmarks: Sequence[SfmEvidence], poses: dict[int, Pose2]) -> np.ndarray:
    """Floor points (x, y, 0) of ``landmarks`` at ``poses``."""
    worlds = landmark_worlds(landmarks, pose_table(poses))
    return np.column_stack((worlds, np.zeros(len(worlds))))


class _PassJob(NamedTuple):
    """One tracked human's pass-between inputs in one kept frame."""

    frame: int  # its frame's index; the frame before it was kept too
    detection: int  # its detection's row: its region's, and its frame's camera pose
    epoch: int  # closure events by its frame: its landmark table is that epoch's
    n_landmarks: int  # landmarks first seen by its frame: the rows of its table it may use
    track_id: int


def _pass_between(
    res: PipelineResult, camera: CameraIntrinsics, rows: _Rows, jobs: Sequence[_PassJob], landmarks: list, row: np.ndarray
) -> None:
    """Pass-between stage: run the jobs in blocks of one closure epoch.

    ``landmarks`` are the SfM records in first-sighting order, and ``row``
    each feature id's row among them (-1: none).  Each epoch's landmark
    table is built once, at its poses (``rows.epoch_poses``), with as many
    landmarks as its last job may use: poses only move at a closure, so a
    job's table is the first ``job.n_landmarks`` rows of its epoch's.  Each
    block is at most ``_PASS_BLOCK`` jobs, so its arrays stay small.
    """
    for epoch, run in groupby(jobs, key=lambda job: job.epoch):
        run = list(run)
        table = (_landmark_table(landmarks[: run[-1].n_landmarks], rows.epoch_poses[epoch]), row)
        for start in range(0, len(run), _PASS_BLOCK):
            _pass_block(res, camera, run[start : start + _PASS_BLOCK], table, rows.poses, rows.regions)


def _pass_block(
    res: PipelineResult,
    camera: CameraIntrinsics,
    jobs: Sequence[_PassJob],
    table: tuple,
    cams: np.ndarray,
    regions: np.ndarray,
) -> None:
    """Order landmarks against each job's human in one numpy pass; append the occlusion and pair rows.

    A landmark seen in the job's frame inside the human's box is in front;
    one seen in its previous frame, unseen now and predicted inside the box
    is behind.  Each distinct frame of the jobs is read once, for its visible
    landmarks.  A job takes its frame's rows, then those of its previous
    frame that its frame lacks, and projects only the ones that can still be
    in front (seen inside the region's columns) or behind (within its rows),
    from its frame's row of ``cams``; its region is its detection's row of
    ``regions``.  Rows are appended in job order; the log merge turns each
    straddling pair into an HO3 record.
    """
    fis, detections, _, n_landmarks, track_ids = zip(*jobs)
    worlds, row = table
    distinct = {fi: i for i, fi in enumerate(dict.fromkeys((*fis, *(fi - 1 for fi in fis))))}
    parts = [res.frames[fi].features for fi in distinct]
    part = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    # Column by column: concatenating record arrays costs a dtype promotion per array.
    fid, u, v, visible = (np.concatenate([p[name] for p in parts]) for name in ("feature_id", "u", "v", "visible"))
    k = row[fid]
    # Index arrays, not masks, pick the rows: gathering by index is several times faster.
    (lm,) = np.nonzero(visible & (k >= 0))
    part, fid, u, v, k = part[lm], fid[lm], u[lm], v[lm], k[lm]
    now, before = (np.array([distinct[fi] for fi in side]) for side in (fis, [fi - 1 for fi in fis]))
    seen_now = np.zeros((len(parts), len(row)), dtype=bool)  # by frame and feature id
    seen_now[part, fid] = True
    after = np.zeros(len(parts), dtype=np.intp)  # the frame a previous frame comes before
    after[before] = now
    (gone,) = np.nonzero(~seen_now[after[part], fid])
    # Frame p's rows are group p, its rows gone from the frame after it group p + len(parts), each in feature order.
    src, group = np.concatenate((np.arange(len(part)), gone)), np.concatenate((part, part[gone] + len(parts)))

    # Each job over its frame's rows (seen), then its previous frame's gone rows.
    sides = np.column_stack((now, before + len(parts))).ravel()
    count = np.bincount(group, minlength=2 * len(parts))
    n = count[sides]
    rows = src[np.arange(n.sum()) + np.repeat(np.cumsum(count)[sides] - np.cumsum(n), n)]
    job, seen = np.repeat(np.arange(len(jobs)), n[::2] + n[1::2]), np.repeat(np.arange(len(n)) % 2 == 0, n)
    x_min, x_max, y_min, y_max, human_depth = regions[list(detections)].T
    front, _ = classify_occlusion(u[rows], seen, (x_min[job], x_max[job]))
    # A landmark seen now occludes the human at the visible-region boundary,
    # so only the column test binds it; one unseen now must also have been
    # last seen within the box's rows.
    behind = ~seen & (y_min[job] <= v[rows]) & (v[rows] <= y_max[job])
    (pick,) = np.nonzero((front | behind) & (k[rows] < np.array(n_landmarks)[job]))
    rows, job, seen = rows[pick], job[pick], seen[pick]

    # Each candidate projected from its own job's camera only.
    u_pred, _, depth = (a[:, 0] for a in camera.project(cams[list(fis)][job], worlds[k[rows]][:, None, :]))
    u = np.where(seen, u[rows], u_pred)
    front, behind = classify_occlusion(u, seen, (x_min[job], x_max[job]))
    (hit,) = np.nonzero(front | (behind & (depth > 0)))
    fid, u, depth, job, front, behind = fid[rows[hit]], u[hit], depth[hit], job[hit], front[hit], behind[hit]
    front_row, behind_row = infer_pass_pairs(job, fid, depth, front, behind, human_depth)

    # Per job, as columns: the frame and track its diagnostics and records name.
    ids = np.array([fis, track_ids])
    label = np.where(front, OcclusionClass.FRONT, OcclusionClass.BEHIND)
    hit_cols = (*ids[:, job], fid, label, u, depth, human_depth[job])
    res.occlusion_diags.extend(zip(*(col.tolist() for col in hit_cols)))
    (paired,) = np.nonzero(front_row >= 0)
    ends = (front_row[paired], behind_row[paired])
    pair_cols = (*ids[:, paired], *(fid[end] for end in ends), *(depth[end] for end in ends), human_depth[paired])
    pairs = list(map(PairDiag, *(col.tolist() for col in pair_cols)))
    assert all(p.front_depth < p.human_depth < p.behind_depth for p in pairs), "pass-between pair must straddle the human"
    res.pair_diags.extend(pairs)


def _log(store: EvidenceStore, landmarks: Iterable, trails: Iterable, pairs: Iterable[PairDiag]) -> None:
    """The merge: the layers, each in frame order, into the log at once, by frame, and within a frame SfM, PfH, HO3."""
    layers = (
        ((fi, store.add_sfm, (lm.feature_id, lm.keyframe_id, lm.offset)) for fi, lm in landmarks),
        ((fi, store.add_pfh, args) for fi, args in trails),
        ((p.frame_index, store.add_ho3, (p.front_id, p.behind_id, p.track_id)) for p in pairs),
    )
    # A stable sort by frame of the layers in turn: within a frame, each layer's records keep their order.
    for _, add, args in sorted(chain(*layers), key=itemgetter(0)):
        add(*args)


def ingest(
    frames: Sequence[FrameObservation],
    camera: CameraIntrinsics,
    params: PipelineParams,
    origin: Pose2,
    calibration: ScaleCalibration,
    closures: Sequence[tuple[int, int, Pose2]],
) -> PipelineResult:
    """The array pass, tracking, then the evidence layers logged at once; reads no ground truth or scene configuration.

    What comes from the truth arrives as the oracles' outputs: ``origin``
    anchors keyframe 0, ``calibration`` scales the range model, and a keyframe
    closes with its first pair ``(older, newer, rel)`` in ``closures`` once
    the last closure is ``closure_min_gap`` keyframes back.  Frame i has
    ``frame_index`` i.
    """
    keep = mot.filter_turning_frames(frames, params.omega_max)
    res = PipelineResult(params, frames, calibration, keep, PoseGraph(origin))
    rows = _array_pass(res, camera, closures)
    tracked = _track_humans(res, rows)
    points = rows.points
    res.position_diags = [(fi, tid, r - rows.first[fi], points[r].world, points[r].depth) for fi, r, tid in tracked]
    stride = params.keyframe_stride
    landmarks, row = _landmarks(frames, camera, stride)
    # A turning frame feeds the pose graph and the landmarks, but no trail or pass-between evidence.
    kept = [(fi, r, tid) for fi, r, tid in tracked if keep[fi]]
    trails = [(fi, (fi // stride, rows.trails[r], tid)) for fi, r, tid in kept]
    # A pass-between job needs the frame before its own kept, a region that keeps a column, and a landmark by then.
    first_seen = [fi for fi, _ in landmarks]
    jobs = []
    for fi, r, tid in kept:
        n_landmarks = bisect_right(first_seen, fi)
        if fi > 0 and keep[fi - 1] and rows.passable[r] and n_landmarks:
            jobs.append(_PassJob(fi, r, rows.epoch[fi], n_landmarks, tid))
    _pass_between(res, camera, rows, jobs, [lm for _, lm in landmarks], row)
    _log(res.store, landmarks, trails, res.pair_diags)
    return res


def run_pipeline(cfg: SceneConfig, params: Optional[PipelineParams] = None) -> PipelineResult:
    """Simulate a scene, ``ingest`` it with the truth oracles' outputs, then attach the scene and join the truth."""
    params = params or PipelineParams()
    frames, truth = simulate_sequence(cfg)
    closures = truth_closures(truth, params) if params.enable_closures else []
    cal = truth_calibration(frames, truth, cfg.intrinsics)
    res = ingest(frames, cfg.intrinsics, params, Pose2(*truth.camera_poses[0]), cal, closures)
    res.config, res.truth = cfg, truth
    # Each row is joined in place, so ingest's rows and the diagnostics never take memory side by side.
    positions, occlusions, walker = res.position_diags, res.occlusion_diags, {}
    for i, (fi, track_id, det, world, depth) in enumerate(positions):
        agent, true_depth = truth.detected[fi][det]
        positions[i] = PositionDiag(fi, track_id, agent, world, truth.human_positions[fi][agent], depth, true_depth)
        walker[fi, track_id] = agent
    for i, (fi, track_id, *rest) in enumerate(occlusions):
        occlusions[i] = OcclusionDiag(fi, track_id, walker[fi, track_id], *rest)
    return res


def build_combo_map(
    result: PipelineResult,
    layers: Sequence[str],
    priority: Optional[LayerPriority] = None,
    params: Optional[RebuildParams] = None,
) -> TraversabilityMap:
    """Regenerate the map for one module combination at the current poses.

    This is where a run's fusion order and radii are worked out for
    ``rebuild_map``, which takes them explicitly: ``priority`` and ``params``
    default to the run's own, ``result.params.priority`` and
    ``result.params.rebuild`` with the scene's robot radius.
    """
    # By keyword: perfbench/tracer.py's ``_on_rebuild`` reads ``enabled`` by name or at position 4 (``priority``).
    return rebuild_map(
        result.store,
        result.graph.snapshot(),
        new_map(*result.config.bounds),
        enabled=layers,
        priority=priority or result.params.priority,
        params=params or replace(result.params.rebuild, robot_radius=result.config.robot_radius),
    )


def map_scene(scene: SceneConfig, combos, params: PipelineParams) -> tuple[PipelineResult, dict[str, TraversabilityMap]]:
    """The mapping step: ``run_pipeline`` on ``scene``, then one map per combination in ``combos``, by label."""
    result = run_pipeline(scene, params)
    return result, {combo_label(layers): build_combo_map(result, layers) for layers in combos}


def score_maps(
    maps: Iterable[tuple[str, TraversabilityMap]], ground_truth: TraversabilityMap, queries, scenario: str
) -> QualityReport:
    """The scoring step: one report row per ``(label, map)`` pair of ``maps``, in order, on ``queries``.

    Each row names ``scenario``; each oracle path is planned once, for all the maps.
    """
    oracles = oracle_plans(ground_truth, queries)
    rows = []
    for label, combo_map in maps:
        ev = evaluate_map(combo_map, ground_truth, queries, oracles)
        rows.append(ReportRow(label, scenario, ev.score, ev.n_queries, ev.n_failed))
    return QualityReport(rows)


def write_map_artifacts(
    out_dir,
    result: PipelineResult,
    ground_truth: TraversabilityMap,
    maps: dict[str, TraversabilityMap],
    report: Optional[QualityReport] = None,
) -> pathlib.Path:
    """Write ``ground_truth.pgm``, ``<scene>_<combo>.pgm`` for each of ``maps``, ``evidence.log`` and ``report.csv``.

    ``report.csv`` is written only when a ``report`` is given.

    Returns the output directory, created if missing.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ground_truth.pgm").write_bytes(export_pgm(ground_truth))
    for label, combo_map in maps.items():
        (out / f"{result.config.name}_{label}.pgm").write_bytes(export_pgm(combo_map))
    (out / "evidence.log").write_text(export_evidence_log(result.store), encoding="ascii")
    if report is not None:
        (out / "report.csv").write_text(report.to_csv(), encoding="ascii")
    return out


@dataclass
class RunConfig:
    scenario: str = "I"
    combos: tuple[str, ...] = COMBINATION_ORDER
    seed: int = 0
    out_dir: Optional[str] = None
    n_queries: int = 20
    min_separation: float = 2.0
    params: PipelineParams = field(default_factory=PipelineParams)

    def __post_init__(self):
        check_bounds(
            ("seed", self.seed, 0, True), ("n_queries", self.n_queries, 1, True),
            ("min_separation", self.min_separation, 0.0, True),
        )


@dataclass
class AblationOutput:
    report: QualityReport
    ground_truth: TraversabilityMap
    maps: dict[str, TraversabilityMap]
    queries: list[JourneyQuery]
    result: PipelineResult


def run_ablation(run_cfg: RunConfig) -> AblationOutput:
    """One ablation run, the mapping and the scoring step for one scene at one seed; byte-reproducible per seed."""
    combos = parse_combos(run_cfg.combos, run_cfg.params.priority)
    scene = replace(load_scenario(run_cfg.scenario), rng_seed=run_cfg.seed)
    gt = ground_truth_map(scene)
    # The queries depend only on the ground truth and the seed: sampling them
    # first fails a setting no query set can meet before simulating.
    queries = sample_queries(gt, run_cfg.n_queries, run_cfg.seed, run_cfg.min_separation)
    result, maps = map_scene(scene, combos, run_cfg.params)
    report = score_maps(maps.items(), gt, queries, scene.name)
    if run_cfg.out_dir is not None:
        write_map_artifacts(run_cfg.out_dir, result, gt, maps, report)
    return AblationOutput(report, gt, maps, queries, result)
