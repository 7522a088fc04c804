"""Traversability evidence: depth model, occlusion ordering, re-anchorable store.

Three evidence streams feed the map.  Feature landmarks, each its SfM record,
mark untraversable disks (static objects).  Human trail points mark
traversable trails.  Pairs of landmarks a human passed between mark
traversable bands, one HO3 record per sighting.  Every record is pose-free:
landmarks and trail points are stored as offsets in their anchor keyframe's
frame, and pass-between records are just feature-id pairs, so a pose-graph
optimization invalidates nothing.  ``rebuild_map`` regenerates the map from
any pose snapshot: it places the enabled layers' endpoints as arrays, from the
store's per-layer columns and one pose table of the snapshot (``pose_table``),
then marks each layer's bands in one batched pass, unless that layer's last
raster had the same inputs.

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
from typing import Collection, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .gridmap import (
    CellState,
    LayerPriority,
    TraversabilityMap,
    empty_like,
    fuse,
)
from .posegraph import Pose2, se2_transform
from .scenesim import CameraIntrinsics, check_bounds

__all__ = [
    "ScaleCalibration",
    "OcclusionClass",
    "SfmEvidence",
    "PfhEvidence",
    "Ho3Evidence",
    "EvidenceError",
    "EvidenceColumns",
    "EvidenceStore",
    "RebuildParams",
    "calibrate_scale",
    "estimate_depth",
    "apparent_height_px",
    "human_map_position",
    "classify_occlusion",
    "infer_pass_pairs",
    "pose_table",
    "landmark_worlds",
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


class OcclusionClass(Enum):
    FRONT = "front"
    BEHIND = "behind"


@dataclass
class SfmEvidence:
    """A landmark: a floor-projected feature point, stored relative to its anchor keyframe.

    ``offset`` is the (forward, left) back-projection given by
    ``CameraIntrinsics.floor_offset`` from the anchor keyframe's camera.
    """

    feature_id: int
    keyframe_id: int
    offset: tuple[float, float]


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
    Returns None when the geometry degenerates (head at or below the horizon,
    or a body no taller than the camera mount).
    """
    # Comparisons that NaN fails, written inline: this runs once per detection.
    if not -math.inf < y_min < math.inf:
        raise ValueError(f"y_min must be finite, got {y_min}")
    if not 0 < body_height < math.inf:
        raise ValueError(f"body_height must be finite and positive, got {body_height}")
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


class EvidenceColumns(NamedTuple):
    """The store's records as arrays, one group per layer, each in log order."""

    sfm_ids: np.ndarray  # (S,) feature ids
    sfm_keyframes: np.ndarray  # (S,) anchor keyframe ids
    sfm_offsets: np.ndarray  # (S, 2) offsets in the anchor keyframe's frame
    pfh_keyframes: np.ndarray  # (P,) anchor keyframe ids
    pfh_offsets: np.ndarray  # (P, 2) offsets in the anchor keyframe's frame
    pfh_tracks: np.ndarray  # (P,) track ids
    pfh_prev: np.ndarray  # (P,) each trail point's previous point in its track; its own row for the track's first
    ho3_rows: np.ndarray  # (H, 2) front and behind landmarks' SfM rows; -1 for a feature with no SfM record


class EvidenceStore:
    """Insertion-ordered evidence log.

    A landmark is its SfM record, logged at its feature's first sighting and
    kept by feature id in ``landmarks``; a repeated feature id logs nothing.
    Every trail point and pass-between sighting is its own record.
    ``records`` is the log; add to it through the ``add_*`` methods, which
    drop the columns ``columns()`` derives from it.
    """

    def __init__(self):
        self.records: list[SfmEvidence | PfhEvidence | Ho3Evidence] = []
        self.landmarks: dict[int, SfmEvidence] = {}
        self._columns: Optional[EvidenceColumns] = None

    def add_sfm(self, feature_id: int, keyframe_id: int, offset: tuple[float, float]) -> None:
        if feature_id not in self.landmarks:
            self.landmarks[feature_id] = rec = SfmEvidence(feature_id, keyframe_id, offset)
            self.records.append(rec)
            self._columns = None

    def add_pfh(self, keyframe_id: int, offset: tuple[float, float], track_id: int) -> None:
        self.records.append(PfhEvidence(keyframe_id, offset, track_id))
        self._columns = None

    def add_ho3(self, front_id: int, behind_id: int, track_id: int, at: Optional[int] = None) -> None:
        """Log a pass-between pair at index ``at`` of the log, by default at its end."""
        self.records.insert(len(self.records) if at is None else at, Ho3Evidence(front_id, behind_id, track_id))
        self._columns = None

    def columns(self) -> EvidenceColumns:
        """The log as per-layer arrays, derived once after the last ``add_*``."""
        if self._columns is None:
            self._columns = _columns(self.records)
        return self._columns

    def __len__(self) -> int:
        return len(self.records)


def _columns(records: Sequence[SfmEvidence | PfhEvidence | Ho3Evidence]) -> EvidenceColumns:
    disks = [rec for rec in records if isinstance(rec, SfmEvidence)]
    trail = [rec for rec in records if isinstance(rec, PfhEvidence)]
    tracks = np.array([rec.track_id for rec in trail], dtype=np.int64)
    order = np.argsort(tracks, kind="stable")  # each track's points, in log order
    same = tracks[order[1:]] == tracks[order[:-1]]
    prev = np.arange(len(trail))
    prev[order[1:][same]] = order[:-1][same]
    row = {rec.feature_id: i for i, rec in enumerate(disks)}
    pairs = [(row.get(r.front_id, -1), row.get(r.behind_id, -1)) for r in records if isinstance(r, Ho3Evidence)]
    return EvidenceColumns(
        np.array([rec.feature_id for rec in disks], dtype=np.int64),
        np.array([rec.keyframe_id for rec in disks], dtype=np.int64),
        np.array([rec.offset for rec in disks], dtype=float).reshape(-1, 2),
        np.array([rec.keyframe_id for rec in trail], dtype=np.int64),
        np.array([rec.offset for rec in trail], dtype=float).reshape(-1, 2),
        tracks,
        prev,
        np.array(pairs, dtype=np.intp).reshape(-1, 2),
    )


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


PoseTable = tuple[dict[int, int], np.ndarray]


def pose_table(snapshot: Mapping[int, Pose2]) -> PoseTable:
    """Each keyframe id's row, and one row (x, y, cos θ, sin θ) per keyframe of ``snapshot``.

    The cosine and sine are ``math``'s, as in ``se2_transform``.
    """
    rows = [(p.x, p.y, math.cos(p.theta), math.sin(p.theta)) for p in snapshot.values()]
    return dict(zip(snapshot, range(len(rows)))), np.array(rows, dtype=float).reshape(-1, 4)


def _place(poses: PoseTable, keyframes: list[int], offsets: np.ndarray) -> np.ndarray:
    """World points (N, 2) of ``offsets`` (N, 2), each in the frame of its keyframe's pose; ``KeyError`` if one has none.

    Elementwise in ``se2_transform``'s operation order, so each point has its bits.
    """
    index, rows = poses
    x, y, c, s = rows[np.fromiter(map(index.__getitem__, keyframes), dtype=np.intp, count=len(keyframes))].T
    ox, oy = offsets.T
    return np.column_stack((x + c * ox - s * oy, y + s * ox + c * oy))


def landmark_worlds(landmarks: Collection[SfmEvidence], poses: PoseTable) -> np.ndarray:
    """World floor points (N, 2) of the SfM records ``landmarks``, in order, at the poses of ``poses``.

    A landmark whose anchor keyframe has no pose raises ``EvidenceError`` naming both.
    """
    offsets = np.array([lm.offset for lm in landmarks], dtype=float).reshape(-1, 2)
    try:
        return _place(poses, [lm.keyframe_id for lm in landmarks], offsets)
    except KeyError:
        lm = next(lm for lm in landmarks if lm.keyframe_id not in poses[0])
        raise EvidenceError(f"landmark {lm.feature_id} anchored to unknown keyframe {lm.keyframe_id}") from None


def _layer_ends(
    columns: EvidenceColumns, poses: PoseTable, enabled: Collection[str]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each enabled layer's band ends (a, b), (N, 2) in log order; a ``KeyError`` where an end cannot be placed.

    An SfM disk is a band from its landmark to itself, an HO3 band runs from
    the front landmark to the behind one, and a trail point's band starts at
    its track's previous point (at itself for the track's first).  HO3 ends
    are the SfM rows they name, placed as disks and trail points are.
    """
    ends = {}
    if SFM_LAYER in enabled:
        disks = _place(poses, columns.sfm_keyframes.tolist(), columns.sfm_offsets)
        ends[SFM_LAYER] = (disks, disks)
    if PFH_LAYER in enabled:
        b = _place(poses, columns.pfh_keyframes.tolist(), columns.pfh_offsets)
        ends[PFH_LAYER] = (b[columns.pfh_prev], b)
    if HO3_LAYER in enabled:
        at = columns.ho3_rows.ravel()
        if (at < 0).any():
            raise KeyError("pass-between evidence names a feature with no SfM record")
        bands = _place(poses, columns.sfm_keyframes[at].tolist(), columns.sfm_offsets[at])
        ends[HO3_LAYER] = (bands[0::2], bands[1::2])
    return ends


def _raise_first_unresolved(store: EvidenceStore, index: Mapping[int, int], enabled) -> None:
    """Raise ``EvidenceError`` for the first end of an enabled layer, in log order, that cannot be placed."""
    for rec in store.records:
        if isinstance(rec, PfhEvidence):
            if PFH_LAYER in enabled and rec.keyframe_id not in index:
                raise EvidenceError(f"trail evidence anchored to unknown keyframe {rec.keyframe_id}") from None
            continue
        if isinstance(rec, SfmEvidence):
            layer, ids = SFM_LAYER, (rec.feature_id,)
        else:
            layer, ids = HO3_LAYER, (rec.front_id, rec.behind_id)
        if layer not in enabled:
            continue
        for fid in ids:
            lm = store.landmarks.get(fid)
            if lm is None:
                raise EvidenceError(f"evidence references unknown feature {fid}") from None
            if lm.keyframe_id not in index:
                raise EvidenceError(f"landmark {lm.feature_id} anchored to unknown keyframe {lm.keyframe_id}") from None


#: Each layer's last raster, as (key, read-only cells).  The key holds every
#: input ``mark_bands`` reads: the grid's origin, resolution and shape, the
#: half width and state, and the bytes of the band ends.
_SLOTS: dict[str, tuple[tuple, np.ndarray]] = {}


def _layer_map(
    base: TraversabilityMap, layer: str, a: np.ndarray, b: np.ndarray, half_width: float, state: CellState
) -> TraversabilityMap:
    """A map with ``base``'s geometry holding ``layer``'s read-only raster of the bands ``a`` to ``b``.

    The raster is made afresh only when one of its inputs differs from the
    last one held in ``layer``'s slot, whose cells are returned uncopied.
    """
    key = (
        np.array((*base.origin, base.resolution, half_width), dtype=float).tobytes(),
        base.cells.shape,
        int(state),
        a.tobytes(),
        b.tobytes(),
    )
    slot = _SLOTS.get(layer)
    if slot is None or slot[0] != key:
        m = empty_like(base)
        m.mark_bands(a, b, half_width, state)
        m.cells.flags.writeable = False
        slot = _SLOTS[layer] = (key, m.cells)
    return TraversabilityMap(base.origin, base.resolution, slot[1])


def rebuild_map(
    store: EvidenceStore,
    snapshot: Mapping[int, Pose2],
    base: TraversabilityMap,
    enabled: Iterable[str],
    priority: LayerPriority,
    params: RebuildParams,
) -> TraversabilityMap:
    """Regenerate the traversability map from evidence at the given poses.

    Landmark disks (inflated by the robot radius) are untraversable; trail
    capsules and pass-between bands are traversable.  When both human-derived
    layers are enabled a cell counts as human-traversable only where both mark
    it; the final map fuses the enabled layers by ``priority``.  A run's
    layers, fusion order and radii are worked out in one place,
    ``pipeline.build_combo_map``; a direct caller names each of them.

    Only the enabled layers' records are resolved, from the store's columns
    and one pose table of ``snapshot``, a pass-between end through its
    feature's SfM record; an end that cannot be placed raises
    ``EvidenceError`` naming the first such id in log order.  Each layer's
    raster is reused while its inputs stay the same: the other combinations
    of one pose snapshot hit, and any moved end misses.  The slot is keyed by
    every input of the rasterizer (grid geometry, the ends' bytes, half width,
    state) and holds read-only cells, which ``fuse`` only reads, so a hit
    gives the bytes a fresh raster would.
    """
    enabled = tuple(enabled)
    for layer in enabled:
        if layer not in ALL_LAYERS:
            raise ValueError(f"unknown evidence layer {layer!r}")
    if not enabled:
        raise ValueError("need at least one enabled layer")
    poses = pose_table(snapshot)
    try:
        ends = _layer_ends(store.columns(), poses, enabled)
    except KeyError:
        _raise_first_unresolved(store, poses[0], enabled)
        raise
    marks = {  # each layer's half width and state
        SFM_LAYER: (params.robot_radius, CellState.UNTRAVERSABLE),
        PFH_LAYER: (params.trail_half_width, CellState.TRAVERSABLE),
        HO3_LAYER: (params.passage_half_width, CellState.TRAVERSABLE),
    }
    layers = {layer: _layer_map(base, layer, *ends[layer], *marks[layer]) for layer in enabled}
    if PFH_LAYER in layers and HO3_LAYER in layers:
        free, human = int(CellState.TRAVERSABLE), empty_like(base)
        human.cells[(layers[PFH_LAYER].cells == free) & (layers[HO3_LAYER].cells == free)] = free
        layers[PFH_LAYER] = layers[HO3_LAYER] = human
    return fuse([(layers[layer], layer) for layer in enabled], priority)


def export_evidence_log(store: EvidenceStore) -> str:
    """One line per record, in log order, for debugging.

    An ``SFM`` line names only its feature, not the landmark's anchor keyframe
    or offset, so the log alone cannot rebuild the SfM or HO3 layers.
    """
    lines = []
    for rec in store.records:
        if isinstance(rec, SfmEvidence):
            lines.append(f"SFM {rec.feature_id}")
        elif isinstance(rec, PfhEvidence):
            lines.append(f"PFH {rec.keyframe_id} {float(rec.offset[0])!r} {float(rec.offset[1])!r} {rec.track_id}")
        else:
            lines.append(f"HO3 {rec.front_id} {rec.behind_id} {rec.track_id}")
    return "\n".join(lines) + ("\n" if lines else "")
