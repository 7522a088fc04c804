"""End-to-end mapping pipeline and the ablation harness.

``run_pipeline`` simulates a scene, then passes the frames, which hold only
sensor output, to ``ingest`` with the truth oracles' outputs: the first true
camera pose, ``truth_calibration`` and ``truth_closures``.  Last, it attaches
the scene and ground truth to ingest's result and joins the truth once, for the
diagnostics.  ``ingest`` reads no ground truth and no scene configuration; it
runs five stages on each frame, in order:

1. keyframes and loop closure: every ``keyframe_stride`` frames (keyframe k
   is frame k * stride) a pose-graph keyframe is added, and each closure it
   ends is added and optimized at once;
2. tracking: human detections, with depth and position estimates, go to the
   tracker;
3. landmarks (keyframes only): each feature's first sighting is anchored to
   the keyframe and logged as its SfM record, which is the landmark;
4. trails (kept frames): each matched confirmed track with a range is
   logged as PfH evidence relative to the newest keyframe;
5. pass-between (kept frames after a kept frame): each such track's inputs
   are recorded in the loop as one job, with its closure epoch and landmark
   count; the landmark table is built once per epoch, before each closure
   and after the loop.  After the loop, landmarks are ordered against each
   job's human in blocks of one epoch's jobs, one numpy pass per block that
   reads each frame once and projects only the candidates seen in the
   human's columns or unseen now within its box's rows, and straddling pairs
   are logged as HO3 evidence at the position in the log their frame had.
   Turning frames are not kept.

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
from dataclasses import dataclass, field, replace
from itertools import groupby, islice
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import mot
from .evidence import (
    ALL_LAYERS,
    EvidenceStore,
    OcclusionClass,
    RebuildParams,
    ScaleCalibration,
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
from .posegraph import OptimizationEvent, Pose2, PoseGraph, se2_compose, se2_inverse, se2_transform
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
    boxes = (det for frame in frames for det in frame.detections)
    ranges = (depth for seen in truth.detected for _, depth in seen)
    ranged = ((d, apparent_height_px(det.y_min, intr, _BODY_HEIGHT)) for det, d in zip(boxes, ranges))
    samples = list(islice(((d, intr.f, h, _BODY_HEIGHT) for d, h in ranged if h is not None), _CALIBRATION_SAMPLES))
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


def _track_humans(
    res: PipelineResult, camera: CameraIntrinsics, frame: FrameObservation, pose_est: Pose2
) -> list[mot.HumanTrack]:
    """Tracking stage: feed the frame's detections, with position estimates, to the tracker.

    Returns the confirmed tracks matched in this frame whose box has a range
    (the only ones the later stages use), each logged as a position row.
    """
    fi = frame.frame_index
    points = []
    for det in frame.detections:
        bbox = (det.x_min, det.x_max, det.y_min, det.y_max)
        h_px = apparent_height_px(det.y_min, camera, _BODY_HEIGHT)
        depth_est = None if h_px is None else estimate_depth(res.calibration, camera.f, _BODY_HEIGHT, h_px)
        world_est = None if h_px is None else human_map_position(pose_est.as_tuple(), camera, bbox, depth_est)
        points.append(mot.TrackPoint(fi, bbox, depth_est, world_est))
    mot.step(res.tracks, points, res.params.gate_px)
    mot.prune(res.tracks)

    # ``depth`` and ``world`` are both None exactly when the box has no range.
    confirmed = (t for t in res.tracks if t.state is mot.TrackState.CONFIRMED)
    matched = [t for t in confirmed if t.matched_at(fi) and t.last.depth is not None]
    for track in matched:
        tp = track.last  # one of this frame's points, appended as is
        res.position_diags.append((fi, track.track_id, points.index(tp), tp.world, tp.depth))
    return matched


def _add_landmarks(res: PipelineResult, camera: CameraIntrinsics, frame: FrameObservation, kf: int) -> None:
    """Landmark stage: anchor newly seen features to keyframe ``kf``, each logged once as SfM.

    Not gated by turning: the turning filter only withholds human-derived evidence.
    """
    seen = frame.features[frame.features["visible"]]
    for fid, u, depth in zip(seen["feature_id"].tolist(), seen["u"].tolist(), seen["depth"].tolist()):
        if fid not in res.store.landmarks:
            res.store.add_sfm(fid, kf, camera.floor_offset(u, depth))


def _add_trails(res: PipelineResult, kf: int, matched: Sequence[mot.HumanTrack]) -> None:
    """Trail stage: each matched track's position as PfH evidence relative to keyframe ``kf``."""
    to_kf = se2_inverse(res.graph.pose(kf))
    for track in matched:
        res.store.add_pfh(kf, se2_transform(to_kf, track.last.world), track.track_id)


def _landmark_table(res: PipelineResult, n_ids: int) -> tuple[np.ndarray, np.ndarray]:
    """Floor points (x, y, 0) of all landmarks at the current poses, and the row of each feature id (-1: none)."""
    worlds = landmark_worlds(res.store.landmarks.values(), pose_table(res.graph.nodes))
    worlds = np.column_stack((worlds, np.zeros(len(worlds))))
    row = np.full(n_ids, -1)
    row[list(res.store.landmarks)] = np.arange(len(worlds))
    return worlds, row


class _PassJob(NamedTuple):
    """One tracked human's pass-between inputs in one kept frame, recorded in the frame loop and computed after it."""

    store_pos: int  # length of the evidence log when the frame was ingested: where its HO3 records go
    frame: FrameObservation
    prev_frame: FrameObservation
    cam: Pose2
    table: tuple[int, int]  # closure events and landmarks so far: its table is that many rows of that epoch's
    track_id: int
    region: tuple[float, float, float, float, float]  # the region's columns, its box's rows, and its range


def _record_pass_between(
    res: PipelineResult,
    jobs: list[_PassJob],
    frame: FrameObservation,
    prev_frame: FrameObservation,
    matched: list[mot.HumanTrack],
    cam: Pose2,
) -> None:
    """Pass-between stage, in the frame loop: queue one job per matched human whose box leaves a region."""
    table = (len(res.events), len(res.store.landmarks))
    for track in matched:
        tp = track.last
        x_min, x_max = tp.bbox[0] + _REGION_MARGIN_PX, tp.bbox[1] - _REGION_MARGIN_PX
        if x_min < x_max:
            region = (x_min, x_max, tp.bbox[2], tp.bbox[3], tp.depth)
            jobs.append(_PassJob(len(res.store.records), frame, prev_frame, cam, table, track.track_id, region))


def _pass_between(res: PipelineResult, camera: CameraIntrinsics, jobs: Sequence[_PassJob], tables: list) -> None:
    """Pass-between stage, after the frame loop: run the queued jobs in blocks of one closure epoch.

    ``tables[e]`` is ``_landmark_table`` at epoch e's poses, those after e
    closure events.  Landmarks are only appended and poses only move at a
    closure, so a job's table is the first ``job.table[1]`` rows of its
    epoch's.  Each block is at most ``_PASS_BLOCK`` jobs, so its arrays stay small.
    """
    n_logged = len(res.store.records)
    for epoch, run in groupby(jobs, key=lambda job: job.table[0]):
        run = list(run)
        for start in range(0, len(run), _PASS_BLOCK):
            _pass_block(res, camera, run[start : start + _PASS_BLOCK], tables[epoch], n_logged)


def _pass_block(res: PipelineResult, camera: CameraIntrinsics, jobs: Sequence[_PassJob], table: tuple, n_logged: int) -> None:
    """Order landmarks against each job's human in one numpy pass; log straddling pairs as HO3.

    A landmark seen in the job's frame inside the human's box is in front;
    one seen in its previous frame, unseen now and predicted inside the box
    is behind.  Each distinct frame of the jobs is read once, for its visible
    landmarks.  A job takes its frame's rows, then those of its previous
    frame that its frame lacks, and projects only the ones that can still be
    in front (seen inside the region's columns) or behind (within its rows).
    Records, diagnostics and log positions are as if each job had run in the
    frame loop: a job's new HO3 records go where its frame's would have, at
    ``store_pos`` plus the records earlier jobs inserted after the
    ``n_logged`` the loop logged.
    """
    store_pos, frames, prev_frames, cams, tables, track_ids, regions = zip(*jobs)
    worlds, row = table
    distinct = {f.frame_index: f for f in (*frames, *prev_frames)}
    parts = [f.features for f in distinct.values()]
    part = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    # Column by column: concatenating record arrays costs a dtype promotion per array.
    fid, u, v, visible = (np.concatenate([p[name] for p in parts]) for name in ("feature_id", "u", "v", "visible"))
    k = row[fid]
    # Index arrays, not masks, pick the rows: gathering by index is several times faster.
    (lm,) = np.nonzero(visible & (k >= 0))
    part, fid, u, v, k = part[lm], fid[lm], u[lm], v[lm], k[lm]
    index = {fi: i for i, fi in enumerate(distinct)}
    now, before = (np.array([index[f.frame_index] for f in side]) for side in (frames, prev_frames))
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
    x_min, x_max, y_min, y_max, human_depth = np.array(regions).T
    front, _ = classify_occlusion(u[rows], seen, (x_min[job], x_max[job]))
    # A landmark seen now occludes the human at the visible-region boundary,
    # so only the column test binds it; one unseen now must also have been
    # last seen within the box's rows.
    behind = ~seen & (y_min[job] <= v[rows]) & (v[rows] <= y_max[job])
    n_landmarks = np.array([t[1] for t in tables])
    (pick,) = np.nonzero((front | behind) & (k[rows] < n_landmarks[job]))
    rows, job, seen = rows[pick], job[pick], seen[pick]

    # Each candidate projected from its own job's camera only.
    cams = np.array([cam.as_tuple() for cam in cams])
    u_pred, _, depth = (a[:, 0] for a in camera.project(cams[job], worlds[k[rows]][:, None, :]))
    u = np.where(seen, u[rows], u_pred)
    front, behind = classify_occlusion(u, seen, (x_min[job], x_max[job]))
    (hit,) = np.nonzero(front | (behind & (depth > 0)))
    fid, u, depth, job, front, behind = fid[rows[hit]], u[hit], depth[hit], job[hit], front[hit], behind[hit]
    front_row, behind_row = infer_pass_pairs(job, fid, depth, front, behind, human_depth)

    # Per job, as columns: the frame and track its diagnostics and records name.
    ids = np.array([[f.frame_index for f in frames], track_ids])
    label = np.where(front, OcclusionClass.FRONT, OcclusionClass.BEHIND)
    hit_cols = (*ids[:, job], fid, label, u, depth, human_depth[job])
    res.occlusion_diags.extend(zip(*(col.tolist() for col in hit_cols)))
    (paired,) = np.nonzero(front_row >= 0)
    ends = (front_row[paired], behind_row[paired])
    pair_cols = (*ids[:, paired], *(fid[end] for end in ends), *(depth[end] for end in ends), human_depth[paired])
    pairs = list(map(PairDiag, *(col.tolist() for col in pair_cols)))
    for j, pair in zip(paired.tolist(), pairs):
        assert pair.front_depth < pair.human_depth < pair.behind_depth, "pass-between pair must straddle the human"
        at = store_pos[j] + len(res.store.records) - n_logged
        res.store.add_ho3(pair.front_id, pair.behind_id, pair.track_id, at=at)
    res.pair_diags.extend(pairs)


def ingest(
    frames: Sequence[FrameObservation],
    camera: CameraIntrinsics,
    params: PipelineParams,
    origin: Pose2,
    calibration: ScaleCalibration,
    closures: Sequence[tuple[int, int, Pose2]],
) -> PipelineResult:
    """The five ingest stages, in one loop over ``frames``; reads no ground truth and no scene configuration.

    What comes from the truth arrives as the oracles' outputs: ``origin``
    anchors keyframe 0, ``calibration`` scales the range model, and a keyframe
    closes with its first pair ``(older, newer, rel)`` in ``closures`` once
    the last closure is ``closure_min_gap`` keyframes back.
    """
    keep = mot.filter_turning_frames(frames, params.omega_max)
    res = PipelineResult(params, frames, calibration, keep, PoseGraph(origin))
    # Feature ids 64 frames at a time: one array of all of them raised an I+L+T ablation's peak RSS by 1.4 MB.
    blocks = (np.concatenate([f.features["feature_id"] for f in frames[i : i + 64]]) for i in range(0, len(frames), 64))
    n_ids = 1 + max(int(ids.max(initial=-1)) for ids in blocks)

    partners: dict[int, tuple[int, Pose2]] = {}
    for older, newer, rel in closures:
        partners.setdefault(newer, (older, rel))
    last_closure_kf = -10**9
    odom_acc = Pose2()
    kf = 0
    tables = []  # ``_landmark_table`` per closure epoch: poses move only when a closure is optimized
    prev_kept = None  # the previous frame, if it was kept
    jobs: list[_PassJob] = []

    for frame in frames:
        fi = frame.frame_index
        at_keyframe = fi % params.keyframe_stride == 0
        if fi > 0:
            odom_acc = se2_compose(odom_acc, Pose2(*frame.odometry))
            if at_keyframe:
                kf = res.graph.add_keyframe(odom_acc)
                odom_acc = Pose2()
                if kf in partners and kf - last_closure_kf >= params.closure_min_gap:
                    older, rel = partners[kf]
                    tables.append(_landmark_table(res, n_ids))
                    res.graph.add_loop_closure(older, kf, rel)
                    res.events.append(res.graph.optimize())
                    last_closure_kf = kf
        pose_est = se2_compose(res.graph.pose(kf), odom_acc)
        matched = _track_humans(res, camera, frame, pose_est)
        if at_keyframe:
            _add_landmarks(res, camera, frame, kf)
        if not keep[fi]:
            # Turning frame: feeds the pose graph and the feature map, but
            # contributes no trail or pass-between evidence.
            prev_kept = None
            continue
        _add_trails(res, kf, matched)
        if res.store.landmarks and prev_kept is not None and matched:
            _record_pass_between(res, jobs, frame, prev_kept, matched, pose_est)
        prev_kept = frame
    tables.append(_landmark_table(res, n_ids))
    _pass_between(res, camera, jobs, tables)
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
    result: PipelineResult, maps: dict[str, TraversabilityMap], ground_truth: TraversabilityMap, queries, out_dir=None
) -> QualityReport:
    """The scoring step: a report row per map on ``queries``; with ``out_dir``, writes the artifacts and ``report.csv``."""
    oracles = oracle_plans(ground_truth, queries)
    scored = {label: evaluate_map(combo_map, ground_truth, queries, oracles) for label, combo_map in maps.items()}
    rows = [ReportRow(label, result.config.name, ev.score, ev.n_queries, ev.n_failed) for label, ev in scored.items()]
    report = QualityReport(rows)
    if out_dir is not None:
        out = write_map_artifacts(out_dir, result, ground_truth, maps)
        (out / "report.csv").write_text(report.to_csv(), encoding="ascii")
    return report


def write_map_artifacts(
    out_dir, result: PipelineResult, ground_truth: TraversabilityMap, maps: dict[str, TraversabilityMap]
) -> pathlib.Path:
    """Write ``ground_truth.pgm``, ``<scene>_<combo>.pgm`` for each of ``maps`` and ``evidence.log``.

    Returns the output directory, created if missing.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ground_truth.pgm").write_bytes(export_pgm(ground_truth))
    for label, combo_map in maps.items():
        (out / f"{result.config.name}_{label}.pgm").write_bytes(export_pgm(combo_map))
    (out / "evidence.log").write_text(export_evidence_log(result.store), encoding="ascii")
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
    report = score_maps(result, maps, gt, queries, run_cfg.out_dir)
    return AblationOutput(report, gt, maps, queries, result)
