"""Traversability evidence: depth model, occlusion ordering, re-anchorable store.

Three evidence streams feed the map.  Feature landmarks mark untraversable
disks (static objects), one SfM record per landmark.  Human trail points mark
traversable trails.  Pairs of landmarks a human passed between mark
traversable bands, one HO3 record per sighting.  Every record is pose-free:
landmarks and trail points are stored as offsets in their anchor keyframe's
frame, and pass-between records are just feature-id pairs, so a pose-graph
optimization invalidates nothing.  ``rebuild_map`` regenerates the map from any pose
snapshot: it resolves every record's endpoints at the snapshot, then marks
each layer's bands in one batched pass.

Monocular range to a human follows from apparent height: with calibration
factor k, distance = k * f * H / h_px.  The apparent height h_px fed by the
pipeline is anchored at the head pixel row, which stays measurable when the
lower body is occluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from statistics import median
from typing import Iterable, Mapping, Optional

import numpy as np

from .gridmap import (
    CellState,
    DEFAULT_PRIORITY,
    LayerPriority,
    TraversabilityMap,
    empty_like,
    fuse,
)
from .posegraph import Pose2, se2_transform
from .scenesim import CameraIntrinsics, check_bounds

__all__ = [
    "ScaleCalibration",
    "Landmark",
    "OcclusionClass",
    "SfmEvidence",
    "PfhEvidence",
    "Ho3Evidence",
    "EvidenceError",
    "EvidenceStore",
    "RebuildParams",
    "calibrate_scale",
    "estimate_depth",
    "apparent_height_px",
    "human_map_position",
    "classify_occlusion",
    "infer_pass_pairs",
    "rebuild_map",
    "export_evidence_log",
]

SFM_LAYER = "sfm"
PFH_LAYER = "pfh"
HO3_LAYER = "ho3"
ALL_LAYERS = (SFM_LAYER, PFH_LAYER, HO3_LAYER)


class EvidenceError(KeyError):
    """Evidence references a keyframe or feature the snapshot cannot resolve."""


@dataclass(frozen=True)
class ScaleCalibration:
    """Scale factor k relating SLAM map units to metric height-based range."""

    k: float

    def __post_init__(self):
        check_bounds(("k", self.k, 0.0, False))


@dataclass(frozen=True)
class Landmark:
    """Floor-projected feature point, stored relative to its anchor keyframe.

    ``offset`` is the (forward, left) back-projection given by
    ``CameraIntrinsics.floor_offset`` from the anchor keyframe's camera.
    """

    feature_id: int
    anchor_keyframe: int
    offset: tuple[float, float]

    def world(self, snapshot: Mapping[int, Pose2]) -> tuple[float, float]:
        try:
            anchor = snapshot[self.anchor_keyframe]
        except KeyError:
            raise EvidenceError(f"landmark {self.feature_id} anchored to unknown keyframe {self.anchor_keyframe}") from None
        return se2_transform(anchor, self.offset)


class OcclusionClass(Enum):
    FRONT = "front"
    BEHIND = "behind"


@dataclass
class SfmEvidence:
    feature_id: int


@dataclass
class PfhEvidence:
    keyframe_id: int
    offset: tuple[float, float]
    track_id: int


@dataclass
class Ho3Evidence:
    front_id: int
    behind_id: int
    track_id: int

    def __post_init__(self):
        if self.front_id == self.behind_id:
            raise ValueError("pass-between pair needs two distinct features")


def calibrate_scale(samples: Iterable[tuple[float, float, float, float]]) -> ScaleCalibration:
    """Median of per-sample k = slam_distance * h_px / (f * H).

    Each sample is (slam_distance, focal_px, apparent_height_px, body_height_m);
    the median keeps single outlying samples from skewing the scale.  A value
    that is not finite and positive is rejected, naming its field: the median
    cannot order a NaN.
    """
    ks = []
    for slam_distance, f, h_px, big_h in samples:
        check_bounds(
            ("slam_distance", slam_distance, 0.0, False), ("focal_px", f, 0.0, False),
            ("apparent_height_px", h_px, 0.0, False), ("body_height_m", big_h, 0.0, False),
        )
        ks.append(slam_distance * h_px / (f * big_h))
    if not ks:
        raise ValueError("need at least one calibration sample")
    return ScaleCalibration(median(ks))


def estimate_depth(cal: ScaleCalibration, f: float, body_height: float, h_px: float) -> float:
    """Range to a human of height ``body_height`` appearing ``h_px`` pixels tall."""
    # Comparisons that NaN fails, written inline: this runs once per detection.
    if not h_px > 0:
        raise ValueError("apparent height must be positive")
    if not 0 < f < math.inf:
        raise ValueError(f"f must be finite and positive, got {f}")
    if not 0 < body_height < math.inf:
        raise ValueError(f"body_height must be finite and positive, got {body_height}")
    return cal.k * f * body_height / h_px


def apparent_height_px(y_min: float, intr: CameraIntrinsics, body_height: float) -> Optional[float]:
    """Full-body pixel height reconstructed from the head row of a detection.

    The head is the one body point guaranteed measurable whenever a detection
    exists, so the apparent height is inferred from how far the head row sits
    above the horizon instead of from the (possibly clipped) box height.
    Returns None when the geometry degenerates (head at or below the horizon).
    """
    if body_height <= intr.cam_height:
        return None
    rows_above_horizon = intr.cy - y_min
    if rows_above_horizon <= 0:
        return None
    return rows_above_horizon * body_height / (body_height - intr.cam_height)


def human_map_position(
    cam_pose: tuple[float, float, float],
    intr: CameraIntrinsics,
    bbox: tuple[float, float, float, float],
    depth: float,
) -> tuple[float, float]:
    """Floor-plane position of a detection given its estimated range.

    The box's center column is back-projected by ``CameraIntrinsics.floor_offset``,
    the same model that anchors landmarks, and placed in the world at ``cam_pose``.
    """
    if not 0 < depth < math.inf:  # NaN fails too
        raise ValueError(f"depth must be positive and finite, got {depth}")
    return se2_transform(Pose2(*cam_pose), intr.floor_offset(0.5 * (bbox[0] + bbox[1]), depth))


def classify_occlusion(u: np.ndarray, seen: np.ndarray, bbox: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Order features at image columns ``u`` against a human region: the FRONT and BEHIND masks.

    A feature observed (``seen``) inside the region's columns occludes the
    human (FRONT); a landmark predicted inside them but unobserved is occluded
    by the human (BEHIND).  Features outside the columns are in neither mask.
    The column bounds ``bbox[0]`` and ``bbox[1]`` are numbers, or arrays
    giving each feature its own region.
    """
    in_columns = (bbox[0] <= u) & (u <= bbox[1])
    return in_columns & seen, in_columns & ~seen


def infer_pass_pairs(
    sets: np.ndarray,
    ids: np.ndarray,
    depths: np.ndarray,
    front: np.ndarray,
    behind: np.ndarray,
    human_depths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of each set's tightest (front, behind) feature pair bracketing its human; -1 where none.

    Feature row r belongs to set ``sets[r]``, whose human is at depth
    ``human_depths[sets[r]]``.  Within a set, the front feature is the deepest
    in the FRONT mask still nearer than the human, the behind one the
    shallowest in the BEHIND mask still farther; ties go to the lower id, then
    the earlier row.  A set whose two choices share an id has no pair.
    """
    human = human_depths[sets]
    gap = np.abs(depths - human)
    far = behind & (depths > human)
    (rows,) = np.nonzero((front & (depths < human)) | far)
    # One segmented sort: by set, then side, then the tie-break rule.
    rows = rows[np.lexsort((ids[rows], gap[rows], far[rows], sets[rows]))]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (sets[rows[1:]] != sets[rows[:-1]]) | (far[rows[1:]] != far[rows[:-1]])
    chosen = rows[first]
    best = np.full((2, len(human_depths)), -1, dtype=np.intp)
    best[far[chosen].astype(np.intp), sets[chosen]] = chosen
    paired = (best >= 0).all(axis=0)
    paired[paired] = ids[best[0, paired]] != ids[best[1, paired]]
    best[:, ~paired] = -1
    return best[0], best[1]


class EvidenceStore:
    """Insertion-ordered evidence log.

    SfM evidence is one record per landmark: a repeated feature id logs
    nothing.  Every trail point and pass-between sighting is its own record.
    """

    def __init__(self):
        self.records: list[SfmEvidence | PfhEvidence | Ho3Evidence] = []
        self._sfm: set[int] = set()

    def add_sfm(self, feature_id: int) -> None:
        if feature_id not in self._sfm:
            self._sfm.add(feature_id)
            self.records.append(SfmEvidence(feature_id))

    def add_pfh(self, keyframe_id: int, offset: tuple[float, float], track_id: int) -> None:
        self.records.append(PfhEvidence(keyframe_id, offset, track_id))

    def add_ho3(self, front_id: int, behind_id: int, track_id: int, at: Optional[int] = None) -> None:
        """Log a pass-between pair at index ``at`` of the log, by default at its end."""
        self.records.insert(len(self.records) if at is None else at, Ho3Evidence(front_id, behind_id, track_id))

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class RebuildParams:
    """Rasterization radii (meters) used when regenerating maps."""

    robot_radius: float = 0.5
    trail_half_width: float = 0.2
    passage_half_width: float = 0.3

    def __post_init__(self):
        check_bounds(
            ("robot_radius", self.robot_radius, 0.0, True),
            ("trail_half_width", self.trail_half_width, 0.0, True),
            ("passage_half_width", self.passage_half_width, 0.0, True),
        )


def rebuild_map(
    store: EvidenceStore,
    snapshot: Mapping[int, Pose2],
    landmarks: Mapping[int, Landmark],
    base: TraversabilityMap,
    enabled: Iterable[str] = ALL_LAYERS,
    priority: LayerPriority = DEFAULT_PRIORITY,
    params: RebuildParams = RebuildParams(),
) -> TraversabilityMap:
    """Regenerate the traversability map from evidence at the given poses.

    Landmark disks (inflated by the robot radius) are untraversable; trail
    capsules and pass-between bands are traversable.  When both human-derived
    layers are enabled a cell counts as human-traversable only where both mark
    it; the final map fuses the enabled layers by priority.  Cost is linear in
    the number of records regardless of how many optimizations happened.
    """
    enabled = tuple(enabled)
    for layer in enabled:
        if layer not in ALL_LAYERS:
            raise ValueError(f"unknown evidence layer {layer!r}")
    if not enabled:
        raise ValueError("need at least one enabled layer")
    segments: dict[str, list] = {layer: [] for layer in enabled}  # (a, b) band endpoints per layer
    last_trail_point: dict[int, tuple[float, float]] = {}
    for rec in store.records:
        if isinstance(rec, SfmEvidence):
            if SFM_LAYER in segments:
                w = _lookup_landmark(landmarks, rec.feature_id).world(snapshot)
                segments[SFM_LAYER].append((w, w))
        elif isinstance(rec, PfhEvidence):
            if PFH_LAYER not in segments:
                continue
            try:
                pose = snapshot[rec.keyframe_id]
            except KeyError:
                raise EvidenceError(f"trail evidence anchored to unknown keyframe {rec.keyframe_id}") from None
            w = se2_transform(pose, rec.offset)
            segments[PFH_LAYER].append((last_trail_point.get(rec.track_id, w), w))
            last_trail_point[rec.track_id] = w
        elif HO3_LAYER in segments:
            ends = (_lookup_landmark(landmarks, fid).world(snapshot) for fid in (rec.front_id, rec.behind_id))
            segments[HO3_LAYER].append(tuple(ends))
    # Every band of a layer writes the same state, so one pass per layer marks them in any order.
    layers = {layer: empty_like(base) for layer in enabled}
    for layer, m in layers.items():
        ends = np.array(segments[layer], dtype=float).reshape(-1, 2, 2)
        if layer == SFM_LAYER:
            m.mark_bands(ends[:, 0], ends[:, 1], params.robot_radius, CellState.UNTRAVERSABLE)
        else:
            half_width = params.trail_half_width if layer == PFH_LAYER else params.passage_half_width
            m.mark_bands(ends[:, 0], ends[:, 1], half_width, CellState.TRAVERSABLE)
    if PFH_LAYER in layers and HO3_LAYER in layers:
        both = (layers[PFH_LAYER].cells == int(CellState.TRAVERSABLE)) & (
            layers[HO3_LAYER].cells == int(CellState.TRAVERSABLE)
        )
        for layer in (PFH_LAYER, HO3_LAYER):
            cells = layers[layer].cells
            cells[:, :] = int(CellState.UNKNOWN)
            cells[both] = int(CellState.TRAVERSABLE)
    return fuse([(layers[layer], layer) for layer in enabled], priority)


def _lookup_landmark(landmarks: Mapping[int, Landmark], feature_id: int) -> Landmark:
    try:
        return landmarks[feature_id]
    except KeyError:
        raise EvidenceError(f"evidence references unknown feature {feature_id}") from None


def export_evidence_log(store: EvidenceStore) -> str:
    """One line per record, replayable for debugging."""
    lines = []
    for rec in store.records:
        if isinstance(rec, SfmEvidence):
            lines.append(f"SFM {rec.feature_id}")
        elif isinstance(rec, PfhEvidence):
            lines.append(f"PFH {rec.keyframe_id} {float(rec.offset[0])!r} {float(rec.offset[1])!r} {rec.track_id}")
        else:
            lines.append(f"HO3 {rec.front_id} {rec.behind_id} {rec.track_id}")
    return "\n".join(lines) + ("\n" if lines else "")
