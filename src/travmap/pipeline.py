"""End-to-end mapping pipeline and the ablation harness.

``run_pipeline`` simulates a scene, then passes the frames, which hold only
sensor output, to ``ingest`` with the truth oracles' outputs: the first true
camera pose, ``truth_calibration`` and ``truth_closures``.  Last, it joins the
ground truth once, for the diagnostics.  ``ingest`` reads no ground truth and
no scene configuration; it runs five stages on each frame, in order:

1. keyframes and loop closure: every ``keyframe_stride`` frames (keyframe k
   is frame k * stride) a pose-graph keyframe is added, and each closure it
   ends is added and optimized at once;
2. tracking: human detections, with depth and position estimates, go to the
   tracker;
3. landmarks (keyframes only): each new feature is anchored and logged once
   as SfM evidence;
4. trails (kept frames): each matched confirmed track with a range is
   logged as PfH evidence relative to the newest keyframe;
5. pass-between (kept frames after a kept frame): each such track's inputs
   are recorded in the loop as one job; after it, landmarks are ordered
   against each job's human in blocks of jobs, one numpy pass per block, and
   straddling pairs are logged as HO3 evidence at the position in the log
   their frame had.
   Turning frames are not kept.

Maps for any module combination are then regenerated from the evidence at the
current pose snapshot and scored against the ground-truth map with a shared
query set, so combination scores differ only because of the modules, not
sampling.

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
    Landmark,
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
    "write_map_artifacts",
    "run_ablation",
]

_LAYERS_BY_LABEL = {label.lower(): layer for layer, label in LAYER_LABELS.items()}

#: Candidate features must sit this far (px) inside the box: the boundary
#: column is where a sight line merely grazes the body, which orders nothing.
_REGION_MARGIN_PX = 1.0

#: Pass-between jobs (one tracked human in one frame each) computed in one
#: numpy pass; bounds the pass's arrays.  One landmark table takes up to 484
#: jobs (L), and one pass per table raised an I+L+T ablation's peak RSS at
#: seed 0 from 64 to 76 MB, for no measured time gain.
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
class Ingest:
    """What ``ingest`` makes of the frames: graph, landmarks, evidence, tracks, and the diagnostics' sensor side."""

    camera: CameraIntrinsics
    calibration: ScaleCalibration
    keep_mask: list[bool]
    graph: PoseGraph
    landmarks: dict[int, Landmark] = field(default_factory=dict)
    store: EvidenceStore = field(default_factory=EvidenceStore)
    tracks: list[mot.HumanTrack] = field(default_factory=list)
    events: list[OptimizationEvent] = field(default_factory=list)
    #: (frame index, track id, its detection's index in the frame, position, range) per ``PositionDiag`` row.
    sightings: list[tuple[int, int, int, tuple[float, float], float]] = field(default_factory=list)
    occlusions: list[tuple] = field(default_factory=list)  # ``OcclusionDiag`` rows but their walker
    pair_diags: list[PairDiag] = field(default_factory=list)


@dataclass
class PipelineResult:
    config: SceneConfig
    params: PipelineParams
    frames: list[FrameObservation]
    truth: GroundTruth
    keep_mask: list[bool]
    graph: PoseGraph
    landmarks: dict[int, Landmark]
    store: EvidenceStore
    tracks: list[mot.HumanTrack]
    calibration: ScaleCalibration
    events: list[OptimizationEvent]
    position_diags: list[PositionDiag]
    occlusion_diags: list[OcclusionDiag]
    pair_diags: list[PairDiag]


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
    ing: Ingest, frame: FrameObservation, pose_est: Pose2, params: PipelineParams
) -> list[mot.HumanTrack]:
    """Tracking stage: feed the frame's detections, with position estimates, to the tracker.

    Returns the confirmed tracks matched in this frame whose box has a range
    (the only ones the later stages use), each logged as a sighting.
    """
    intr, fi = ing.camera, frame.frame_index
    points = []
    for det in frame.detections:
        bbox = (det.x_min, det.x_max, det.y_min, det.y_max)
        h_px = apparent_height_px(det.y_min, intr, _BODY_HEIGHT)
        depth_est = None if h_px is None else estimate_depth(ing.calibration, intr.f, _BODY_HEIGHT, h_px)
        world_est = None if h_px is None else human_map_position(pose_est.as_tuple(), intr, bbox, depth_est)
        points.append(mot.TrackPoint(fi, bbox, depth_est, world_est))
    mot.step(ing.tracks, points, params.gate_px)
    mot.prune(ing.tracks)

    # ``depth`` and ``world`` are both None exactly when the box has no range.
    confirmed = (t for t in ing.tracks if t.state is mot.TrackState.CONFIRMED)
    matched = [t for t in confirmed if t.matched_at(fi) and t.last.depth is not None]
    for track in matched:
        tp = track.last  # one of this frame's points, appended as is
        ing.sightings.append((fi, track.track_id, points.index(tp), tp.world, tp.depth))
    return matched


def _add_landmarks(ing: Ingest, frame: FrameObservation, kf: int) -> None:
    """Landmark stage: anchor newly seen features to keyframe ``kf``, each logged once as SfM.

    Not gated by turning: the turning filter only withholds human-derived evidence.
    """
    seen = frame.features[frame.features["visible"]]
    for fid, u, depth in zip(seen["feature_id"].tolist(), seen["u"].tolist(), seen["depth"].tolist()):
        if fid not in ing.landmarks:
            ing.landmarks[fid] = Landmark(fid, kf, ing.camera.floor_offset(u, depth))
            ing.store.add_sfm(fid)


def _add_trails(ing: Ingest, kf: int, matched: Sequence[mot.HumanTrack]) -> None:
    """Trail stage: each matched track's position as PfH evidence relative to keyframe ``kf``."""
    to_kf = se2_inverse(ing.graph.pose(kf))
    for track in matched:
        ing.store.add_pfh(kf, se2_transform(to_kf, track.last.world), track.track_id)


def _landmark_table(ing: Ingest, n_ids: int) -> tuple[np.ndarray, np.ndarray]:
    """Floor points (x, y, 0) of all landmarks at the current poses, and the row of each feature id (-1: none)."""
    worlds = landmark_worlds(ing.landmarks.values(), pose_table(ing.graph.nodes))
    worlds = np.column_stack((worlds, np.zeros(len(worlds))))
    row = np.full(n_ids, -1)
    row[list(ing.landmarks)] = np.arange(len(ing.landmarks))
    return worlds, row


class _PassJob(NamedTuple):
    """One tracked human's pass-between inputs in one kept frame, recorded in the frame loop and computed after it."""

    store_pos: int  # length of the evidence log when the frame was ingested: where its HO3 records go
    frame: FrameObservation
    prev_frame: FrameObservation
    cam: Pose2
    table: tuple[np.ndarray, np.ndarray]  # ``_landmark_table`` at the frame's poses
    track_id: int
    region: tuple[float, float, float, float, float]  # the region's columns, its box's rows, and its range


def _record_pass_between(
    ing: Ingest,
    jobs: list[_PassJob],
    frame: FrameObservation,
    prev_frame: FrameObservation,
    matched: list[mot.HumanTrack],
    cam: Pose2,
    table: tuple[np.ndarray, np.ndarray],
) -> None:
    """Pass-between stage, in the frame loop: queue one job per matched human whose box leaves a region."""
    for track in matched:
        tp = track.last
        x_min, x_max = tp.bbox[0] + _REGION_MARGIN_PX, tp.bbox[1] - _REGION_MARGIN_PX
        if x_min < x_max:
            region = (x_min, x_max, tp.bbox[2], tp.bbox[3], tp.depth)
            jobs.append(_PassJob(len(ing.store.records), frame, prev_frame, cam, table, track.track_id, region))


def _pass_between(ing: Ingest, jobs: Sequence[_PassJob]) -> None:
    """Pass-between stage, after the frame loop: run the queued jobs in blocks of one landmark table.

    Each block is at most ``_PASS_BLOCK`` jobs, so its arrays stay small.
    """
    n_logged = len(ing.store.records)
    for _, run in groupby(jobs, key=lambda job: id(job.table)):
        run = list(run)
        for start in range(0, len(run), _PASS_BLOCK):
            _pass_block(ing, run[start : start + _PASS_BLOCK], n_logged)


def _pass_block(ing: Ingest, jobs: Sequence[_PassJob], n_logged: int) -> None:
    """Order landmarks against each job's human in one numpy pass; log straddling pairs as HO3.

    A landmark seen in the job's frame inside the human's box is in front;
    one seen in its previous frame, unseen now and predicted inside the box
    is behind.  Records, diagnostics and log positions are as if each job had
    run in the frame loop: a job's new HO3 records go where its frame's would
    have, at ``store_pos`` plus the records earlier jobs inserted after the
    ``n_logged`` the loop logged.
    """
    store_pos, frames, prev_frames, cams, tables, track_ids, regions = zip(*jobs)
    worlds, row = tables[0]
    # Candidates, job by job, seen ones first: each job's frame, then its previous frame.
    parts = [f.features for pair in zip(frames, prev_frames) for f in pair]
    part = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    # Column by column: concatenating record arrays costs a dtype promotion per array.
    fid, u, v, visible = (np.concatenate([p[name] for p in parts]) for name in ("feature_id", "u", "v", "visible"))
    job, seen = part // 2, part % 2 == 0
    seen_now = np.zeros((len(jobs), len(row)), dtype=bool)  # by job and feature id
    now = np.flatnonzero(visible & seen)
    seen_now[job[now], fid[now]] = True
    k = row[fid]
    # Index arrays, not masks, pick the rows: gathering by index is several times faster.
    (pick,) = np.nonzero(visible & (k >= 0) & (seen | ~seen_now[job, fid]))
    # Each candidate projected from its own job's camera only.
    cams = np.array([cam.as_tuple() for cam in cams])
    u_pred, _, depth = (a[:, 0] for a in ing.camera.project(cams[job[pick]], worlds[k[pick]][:, None, :]))
    (in_front,) = np.nonzero(seen[pick] | (depth > 0))
    pick, depth = pick[in_front], depth[in_front]
    fid, v, job, seen = fid[pick], v[pick], job[pick], seen[pick]
    u = np.where(seen, u[pick], u_pred[in_front])

    # Each job's candidates against its human's region.
    x_min, x_max, y_min, y_max, human_depth = np.array(regions).T
    front, behind = classify_occlusion(u, seen, (x_min[job], x_max[job]))
    # A landmark seen now occludes the human at the visible-region boundary,
    # so only the column test binds it; one unseen now must also have been
    # last seen within the box's rows.
    behind &= (y_min[job] <= v) & (v <= y_max[job])
    front_row, behind_row = infer_pass_pairs(job, fid, depth, front, behind, human_depth)

    # Per job, as columns: the frame and track its diagnostics and records name.
    ids = np.array([[f.frame_index for f in frames], track_ids])
    (hit,) = np.nonzero(front | behind)
    label = np.where(front[hit], OcclusionClass.FRONT, OcclusionClass.BEHIND)
    hit_cols = (*ids[:, job[hit]], fid[hit], label, u[hit], depth[hit], human_depth[job[hit]])
    ing.occlusions.extend(zip(*(col.tolist() for col in hit_cols)))
    (paired,) = np.nonzero(front_row >= 0)
    ends = (front_row[paired], behind_row[paired])
    pair_cols = (*ids[:, paired], *(fid[end] for end in ends), *(depth[end] for end in ends), human_depth[paired])
    pairs = list(map(PairDiag, *(col.tolist() for col in pair_cols)))
    for j, pair in zip(paired.tolist(), pairs):
        assert pair.front_depth < pair.human_depth < pair.behind_depth, "pass-between pair must straddle the human"
        at = store_pos[j] + len(ing.store.records) - n_logged
        ing.store.add_ho3(pair.front_id, pair.behind_id, pair.track_id, at=at)
    ing.pair_diags.extend(pairs)


def ingest(
    frames: Sequence[FrameObservation],
    camera: CameraIntrinsics,
    params: PipelineParams,
    origin: Pose2,
    calibration: ScaleCalibration,
    closures: Sequence[tuple[int, int, Pose2]],
) -> Ingest:
    """The five ingest stages, in one loop over ``frames``; reads no ground truth and no scene configuration.

    What comes from the truth arrives as the oracles' outputs: ``origin``
    anchors keyframe 0, ``calibration`` scales the range model, and a keyframe
    closes with its first pair ``(older, newer, rel)`` in ``closures`` once
    the last closure is ``closure_min_gap`` keyframes back.
    """
    keep = mot.filter_turning_frames(frames, params.omega_max)
    ing = Ingest(camera, calibration, keep, PoseGraph(origin))
    # Feature ids 64 frames at a time: one array of all of them raised an I+L+T ablation's peak RSS by 1.4 MB.
    blocks = (np.concatenate([f.features["feature_id"] for f in frames[i : i + 64]]) for i in range(0, len(frames), 64))
    n_ids = 1 + max(int(ids.max(initial=-1)) for ids in blocks)

    partners: dict[int, tuple[int, Pose2]] = {}
    for older, newer, rel in closures:
        partners.setdefault(newer, (older, rel))
    last_closure_kf = -10**9
    odom_acc = Pose2()
    kf = 0
    # The landmark table, and the (landmark, event) counts it was built at:
    # landmarks are only added, and poses only move when a closure is optimized.
    table, table_at = None, None
    prev_kept = None  # the previous frame, if it was kept
    jobs: list[_PassJob] = []

    for frame in frames:
        fi = frame.frame_index
        at_keyframe = fi % params.keyframe_stride == 0
        if fi > 0:
            odom_acc = se2_compose(odom_acc, Pose2(*frame.odometry))
            if at_keyframe:
                kf = ing.graph.add_keyframe(odom_acc)
                odom_acc = Pose2()
                if kf in partners and kf - last_closure_kf >= params.closure_min_gap:
                    older, rel = partners[kf]
                    ing.graph.add_loop_closure(older, kf, rel)
                    ing.events.append(ing.graph.optimize())
                    last_closure_kf = kf
        pose_est = se2_compose(ing.graph.pose(kf), odom_acc)
        matched = _track_humans(ing, frame, pose_est, params)
        if at_keyframe:
            _add_landmarks(ing, frame, kf)
        if not keep[fi]:
            # Turning frame: feeds the pose graph and the feature map, but
            # contributes no trail or pass-between evidence.
            prev_kept = None
            continue
        _add_trails(ing, kf, matched)
        if ing.landmarks and prev_kept is not None and matched:
            counts = (len(ing.landmarks), len(ing.events))
            if counts != table_at:
                table, table_at = _landmark_table(ing, n_ids), counts
            _record_pass_between(ing, jobs, frame, prev_kept, matched, pose_est, table)
        prev_kept = frame
    _pass_between(ing, jobs)
    return ing


def run_pipeline(cfg: SceneConfig, params: Optional[PipelineParams] = None) -> PipelineResult:
    """Simulate a scene, ``ingest`` it with the truth oracles' outputs, then join the truth for the diagnostics."""
    params = params or PipelineParams()
    frames, truth = simulate_sequence(cfg)
    closures = truth_closures(truth, params) if params.enable_closures else []
    cal = truth_calibration(frames, truth, cfg.intrinsics)
    ing = ingest(frames, cfg.intrinsics, params, Pose2(*truth.camera_poses[0]), cal, closures)
    # Each row is joined in place, so ingest's rows and the diagnostics never take memory side by side.
    positions, occlusions, walker = ing.sightings, ing.occlusions, {}
    for i, (fi, track_id, det, world, depth) in enumerate(positions):
        agent, true_depth = truth.detected[fi][det]
        positions[i] = PositionDiag(fi, track_id, agent, world, truth.human_positions[fi][agent], depth, true_depth)
        walker[fi, track_id] = agent
    for i, (fi, track_id, *rest) in enumerate(occlusions):
        occlusions[i] = OcclusionDiag(fi, track_id, walker[fi, track_id], *rest)
    return PipelineResult(
        cfg, params, frames, truth, ing.keep_mask, ing.graph, ing.landmarks, ing.store, ing.tracks, cal, ing.events,
        positions, occlusions, ing.pair_diags,
    )


def build_combo_map(
    result: PipelineResult,
    layers: Sequence[str],
    priority: Optional[LayerPriority] = None,
    params: Optional[RebuildParams] = None,
) -> TraversabilityMap:
    """Regenerate the map for one module combination at the current poses.

    ``priority`` and ``params`` default to the run's own: ``result.params.priority``
    and ``result.params.rebuild`` with the scene's robot radius.
    """
    return rebuild_map(
        result.store,
        result.graph.snapshot(),
        result.landmarks,
        new_map(*result.config.bounds),
        layers,
        priority or result.params.priority,
        params or replace(result.params.rebuild, robot_radius=result.config.robot_radius),
    )


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
    """Full ablation pass: one simulation, one query set, one map per combination.

    When ``out_dir`` is set, writes the map artifacts (``write_map_artifacts``)
    and ``report.csv``; all outputs are byte-reproducible for a fixed seed.
    """
    combos = parse_combos(run_cfg.combos, run_cfg.params.priority)
    scene = replace(load_scenario(run_cfg.scenario), rng_seed=run_cfg.seed)

    gt = ground_truth_map(scene)
    # The queries depend only on the ground truth and the seed: sampling them
    # first fails a setting no query set can meet before simulating.
    queries = sample_queries(gt, run_cfg.n_queries, run_cfg.seed, run_cfg.min_separation)
    oracles = oracle_plans(gt, queries)
    result = run_pipeline(scene, run_cfg.params)

    maps: dict[str, TraversabilityMap] = {}
    rows = []
    for layers in combos:
        label = combo_label(layers)
        combo_map = build_combo_map(result, layers)
        ev = evaluate_map(combo_map, gt, queries, oracles)
        maps[label] = combo_map
        rows.append(ReportRow(label, scene.name, ev.score, ev.n_queries, ev.n_failed))
    report = QualityReport(rows)

    if run_cfg.out_dir is not None:
        out = write_map_artifacts(run_cfg.out_dir, result, gt, maps)
        (out / "report.csv").write_text(report.to_csv(), encoding="ascii")
    return AblationOutput(report, gt, maps, queries, result)
