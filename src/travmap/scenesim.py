"""Synthetic indoor scenes: geometry, trajectories, pinhole projection, occlusion.

Replaces the real sensing stack with a deterministic simulator.  A scene is a
3 m x 6 m floor populated with table-sized boxes arranged to leave an I-, L-
or T-shaped walkway, one or more walking humans, and an observer robot that
circles the scene with a side-mounted monocular camera.  The simulator emits
frames that hold only sensor output: feature observations (with visibility
flags), human detections as bounding boxes, odometry and angular speed.  The
noiseless ground truth the oracles and diagnostics need (camera poses, walker
positions, each detection's walker and range) comes apart, as ``GroundTruth``.

Conventions: world yaw 0 looks along +x; the camera frame has z along the
optical axis, x to the right of heading and y down, so at yaw 0 "right" is
world -y.  Image coordinates are pixels with (0, 0) at the top-left corner.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .gridmap import CellState, TraversabilityMap, new_map
from .posegraph import Pose2, se2_compose, se2_inverse, wrap_angle

__all__ = [
    "HUMAN_BODY_RADIUS",
    "CameraIntrinsics",
    "ObstacleBox",
    "AgentTrajectory",
    "SceneConfig",
    "FEATURE_DTYPE",
    "HumanDetection",
    "FrameObservation",
    "GroundTruth",
    "check_bounds",
    "check_report_field",
    "builtin_config",
    "ground_truth_map",
    "simulate_sequence",
]

#: Humans are modeled as vertical cylinders of this radius (m) for occlusion
#: and bounding-box width.
HUMAN_BODY_RADIUS = 0.25

#: Vertical sampling step (m) along the body axis when deciding the visible extent.
_BODY_SAMPLE_STEP = 0.05

#: Numerical slack for ray-volume penetration tests; grazing contact is visible.
_RAY_EPS = 1e-9

_HUMAN_HEIGHT_RANGE = (1.52, 1.83)

#: Frames projected and sight-line tested together; bounds the working arrays.
_FRAME_BLOCK = 64


def check_bounds(*fields: tuple[str, float, float, bool]) -> None:
    """Raise ValueError naming the first field that is not finite or not past its bound.

    Each field is (name, value, the bound it must exceed, whether it may equal that bound).
    """
    for name, value, low, may_equal in fields:
        if not (math.isfinite(value) and (value >= low if may_equal else value > low)):
            raise ValueError(f"{name} must be finite and {'>=' if may_equal else '>'} {low}, got {value}")


def check_report_field(name: str, value: str) -> None:
    """Raise ValueError naming a text field holding ``,``, ``"``, CR or LF: it would split its ``report.csv`` row."""
    if any(c in value for c in ',"\r\n'):
        raise ValueError(f"{name} must not hold ',', '\"', CR or LF (it is a report.csv field), got {value!r}")


@dataclass(frozen=True)
class CameraIntrinsics:
    """Level pinhole camera ``cam_height`` above the floor: the one projection model.

    The defaults are a tall frame: heads of nearby humans (~1.2 m away) must
    stay above the horizon row yet inside the image for the height-based
    range model to see them.
    """

    f: float = 400.0
    cx: float = 320.0
    cy: float = 360.0
    image_width: int = 640
    image_height: int = 720
    cam_height: float = 0.85

    def __post_init__(self):
        check_bounds(("f", self.f, 0.0, False), ("cam_height", self.cam_height, 0.0, False))
        if not (0 <= self.cx < self.image_width and 0 <= self.cy < self.image_height):
            raise ValueError("principal point must lie inside the image")

    def project(self, cam_pose: np.ndarray | tuple[float, float, float], pts: np.ndarray):
        """Project world points (..., N, 3) from camera poses (..., 3); returns (u, v, depth) without any masking.

        One pose (3,) and points (N, 3) give (N,) arrays; a block of poses
        (B, 3) gives (B, N) arrays, row k seen from pose k.
        """
        cam = np.asarray(cam_pose, dtype=float)[..., None, :]
        c = np.cos(cam[..., 2])
        s = np.sin(cam[..., 2])
        dx = pts[..., 0] - cam[..., 0]
        dy = pts[..., 1] - cam[..., 1]
        depth = c * dx + s * dy
        lateral = s * dx - c * dy  # to the right of heading
        down = self.cam_height - pts[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.cx + self.f * lateral / depth
            v = self.cy + self.f * down / depth
        return u, v, depth

    def floor_offset(self, u: float, depth: float) -> tuple[float, float]:
        """Floor point at image column ``u`` and range ``depth``, as (forward, left) of the camera."""
        return (depth, -((u - self.cx) * depth / self.f))


@dataclass(frozen=True)
class ObstacleBox:
    """Axis box in its own frame: footprint half extents, height from the floor."""

    center: tuple[float, float]
    half_extents: tuple[float, float]
    top_height: float
    yaw: float = 0.0

    def __post_init__(self):
        check_bounds(
            *(("center", c, -math.inf, False) for c in self.center),
            *(("half_extents", h, 0.0, False) for h in self.half_extents),
            ("top_height", self.top_height, 0.0, False), ("yaw", self.yaw, -math.inf, False),
        )


@dataclass(frozen=True)
class AgentTrajectory:
    """Piecewise-linear timed path; yaw interpolates along the shortest arc."""

    role: str  # "human" | "robot"
    waypoints: tuple[tuple[float, tuple[float, float, float]], ...]
    body_height: Optional[float] = None

    def __post_init__(self):
        if self.role not in ("human", "robot"):
            raise ValueError(f"unknown agent role {self.role!r}")
        times = [t for t, _ in self.waypoints]
        if len(times) < 1:
            raise ValueError("trajectory needs at least one waypoint")
        for t, pose in self.waypoints:
            numbers = zip(("t", "x", "y", "yaw"), (t, *pose))
            check_bounds(*((f"waypoint {name}", v, -math.inf, False) for name, v in numbers))
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("waypoint timestamps must be strictly increasing")
        if self.role == "human":
            if self.body_height is None:
                raise ValueError("human trajectories need a body height")
            lo, hi = _HUMAN_HEIGHT_RANGE
            if not (lo <= self.body_height <= hi):
                raise ValueError(f"body height {self.body_height} outside [{lo}, {hi}] m")

    @property
    def duration(self) -> float:
        return self.waypoints[-1][0]

    def pose_at(self, t: float) -> tuple[float, float, float]:
        """Pose at time t, clamped to the first/last waypoint outside the range."""
        wps = self.waypoints
        if t <= wps[0][0]:
            return wps[0][1]
        if t >= wps[-1][0]:
            return wps[-1][1]
        for (t0, p0), (t1, p1) in zip(wps, wps[1:]):
            if t0 <= t <= t1:
                frac = (t - t0) / (t1 - t0)
                x = p0[0] + frac * (p1[0] - p0[0])
                y = p0[1] + frac * (p1[1] - p0[1])
                yaw = wrap_angle(p0[2] + frac * wrap_angle(p1[2] - p0[2]))
                return (x, y, yaw)
        raise AssertionError("unreachable")


@dataclass
class SceneConfig:
    bounds: tuple[float, float, float, float]
    obstacles: list[ObstacleBox]
    humans: list[AgentTrajectory]
    robot: AgentTrajectory
    intrinsics: CameraIntrinsics
    fps: float = 30.0
    feature_spacing: float = 0.10
    robot_radius: float = 0.5
    rng_seed: int = 0  # the run's seed (``--seed``); scenario files do not set it
    odom_sigma_trans: float = 0.0
    odom_sigma_rot: float = 0.0
    #: Camera optical axis offset from robot heading (side-facing mount).
    camera_yaw_offset: float = math.pi / 2
    name: str = "scene"

    def __post_init__(self):
        x_min, y_min, x_max, y_max = self.bounds
        check_bounds(
            ("x_min", x_min, -math.inf, False), ("y_min", y_min, -math.inf, False),
            ("x_max", x_max, x_min, False), ("y_max", y_max, y_min, False),
            ("fps", self.fps, 0.0, False), ("feature_spacing", self.feature_spacing, 0.0, False),
            ("odom_sigma_trans", self.odom_sigma_trans, 0.0, True), ("odom_sigma_rot", self.odom_sigma_rot, 0.0, True),
            ("robot_radius", self.robot_radius, 0.0, True), ("rng_seed", self.rng_seed, 0, True),
            ("camera_yaw_offset", self.camera_yaw_offset, -math.inf, False),
        )
        if not any(x_min <= x <= x_max and y_min <= y <= y_max for _, (x, y, _) in self.robot.waypoints):
            raise ValueError(f"robot has no waypoint inside the bounds {self.bounds}")
        # Output file and directory names are built from it, so it must not leave the output directory.
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise ValueError(f"name must be a plain file-name part (no '/', '\\' or NUL), got {self.name!r}")
        check_report_field("name", self.name)


#: One row per feature a frame sees: its id, image position, depth along the
#: optical axis, and whether its sight line is clear.
FEATURE_DTYPE = np.dtype([("feature_id", np.int64), ("u", float), ("v", float), ("depth", float), ("visible", bool)])


@dataclass(frozen=True)
class HumanDetection:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate detection box")


@dataclass
class FrameObservation:
    frame_index: int
    timestamp: float
    angular_speed: float
    odometry: Optional[tuple[float, float, float]]
    #: ``FEATURE_DTYPE`` rows of the features in front and inside the image.
    features: np.ndarray = field(default_factory=lambda: np.empty(0, FEATURE_DTYPE))
    detections: list[HumanDetection] = field(default_factory=list)

    def __eq__(self, other):
        """Field by field, as the generated equality would, with ``features`` compared by value."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        same_rest = {**vars(self), "features": None} == {**vars(other), "features": None}
        return same_rest and np.array_equal(self.features, other.features)


@dataclass
class GroundTruth:
    """Noiseless trajectories and geometry for oracle checks."""

    camera_poses: list[tuple[float, float, float]]
    feature_points: dict[int, tuple[float, float, float]]
    human_positions: list[list[tuple[float, float]]]
    #: Each frame's detections as (walker index, true range along the optical axis), in detection order.
    detected: list[list[tuple[int, float]]]


# ---------------------------------------------------------------------------
# occlusion


def _slab(o, d, lo: float, hi: float):
    """Entry and exit parameters t of the lines o + t * d through the slab lo <= x <= hi.

    A line parallel to the slab (|d| < 1e-12) is inside it for every t or for none.
    """
    parallel = np.abs(d) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - o) / d
        t2 = (hi - o) / d
    inside = (lo <= o) & (o <= hi)
    near = np.where(parallel, np.where(inside, -np.inf, np.inf), np.minimum(t1, t2))
    far = np.where(parallel, np.where(inside, np.inf, -np.inf), np.maximum(t1, t2))
    return near, far


def _to_box_frame(x: np.ndarray, y: np.ndarray, box: ObstacleBox) -> tuple[np.ndarray, np.ndarray]:
    """World coordinates ``x``, ``y`` in ``box``'s own frame.

    Elementwise, so a point rounds the same alone as in a block of points.
    """
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx = x - box.center[0]
    dy = y - box.center[1]
    return c * dx + s * dy, -s * dx + c * dy


def _penetrates(nears: Sequence[np.ndarray], fars: Sequence[np.ndarray]) -> np.ndarray:
    """True where [0, 1 - _RAY_EPS) and every (near, far) interval of the segment parameter share more than _RAY_EPS."""
    t_enter = functools.reduce(np.maximum, nears, 0.0)
    t_exit = functools.reduce(np.minimum, fars, 1.0 - _RAY_EPS)
    return (t_exit - t_enter) > _RAY_EPS


def _box_blocked(origin: np.ndarray, targets: np.ndarray, box: ObstacleBox) -> np.ndarray:
    """True where the segment origin->target penetrates the box volume.

    ``origin`` (..., 3) and ``targets`` (..., 3) broadcast against each other.
    """
    o = (*_to_box_frame(origin[..., 0], origin[..., 1], box), origin[..., 2])
    t = (*_to_box_frame(targets[..., 0], targets[..., 1], box), targets[..., 2])
    lo = (-box.half_extents[0], -box.half_extents[1], 0.0)
    hi = (box.half_extents[0], box.half_extents[1], box.top_height)
    slabs = [_slab(o[axis], t[axis] - o[axis], lo[axis], hi[axis]) for axis in range(3)]
    return _penetrates(*zip(*slabs))


def _cylinder_blocked(
    origin: np.ndarray,
    targets: np.ndarray,
    axis_xy: np.ndarray,
    radius: float,
    height: float,
) -> np.ndarray:
    """True where the segment origin->target penetrates the vertical cylinder.

    ``origin`` (..., 3), ``targets`` (..., 3) and ``axis_xy`` (..., 2) broadcast
    against each other.
    """
    ox = origin[..., 0] - axis_xy[..., 0]
    oy = origin[..., 1] - axis_xy[..., 1]
    d = targets - origin
    a = d[..., 0] ** 2 + d[..., 1] ** 2
    b = 2.0 * (ox * d[..., 0] + oy * d[..., 1])
    c0 = ox * ox + oy * oy - radius * radius
    disc = b * b - 4.0 * a * c0
    sq = np.sqrt(np.maximum(disc, 0.0))
    tiny = a < 1e-18
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (-b - sq) / (2.0 * a)
        t_hi = (-b + sq) / (2.0 * a)
    inside_circle = c0 <= 0.0
    t_lo = np.where(tiny, np.where(inside_circle, -np.inf, np.inf), t_lo)
    t_hi = np.where(tiny, np.where(inside_circle, np.inf, -np.inf), t_hi)
    empty = disc < 0.0
    t_lo = np.where(empty & ~tiny, np.inf, t_lo)
    t_hi = np.where(empty & ~tiny, -np.inf, t_hi)
    z_lo, z_hi = _slab(origin[..., 2], d[..., 2], 0.0, height)
    return _penetrates((t_lo, z_lo), (t_hi, z_hi))


def _blocked_any(
    origin: np.ndarray,
    targets: np.ndarray,
    obstacles: Sequence[ObstacleBox],
    cylinders: Sequence[tuple[np.ndarray, float]],
) -> np.ndarray:
    """True where any box or body cylinder ((x, y) axis, height) blocks origin->target; shapes broadcast."""
    blocked = np.zeros(np.broadcast_shapes(origin.shape[:-1], targets.shape[:-1]), dtype=bool)
    for box in obstacles:
        blocked |= _box_blocked(origin, targets, box)
    for axis_xy, height in cylinders:
        blocked |= _cylinder_blocked(origin, targets, axis_xy, HUMAN_BODY_RADIUS, height)
    return blocked


# ---------------------------------------------------------------------------
# ground truth


def ground_truth_map(cfg: SceneConfig) -> TraversabilityMap:
    """C-space reference map: footprints inflated by the robot radius are blocked."""
    x_min, y_min, x_max, y_max = cfg.bounds
    m = new_map(x_min, y_min, x_max, y_max)
    m.cells[:, :] = int(CellState.TRAVERSABLE)
    xs = x_min + (np.arange(m.width) + 0.5) * m.resolution
    ys = y_min + (np.arange(m.height) + 0.5) * m.resolution
    X, Y = np.meshgrid(xs, ys)
    r = cfg.robot_radius
    for box in cfg.obstacles:
        lx, ly = _to_box_frame(X, Y, box)
        ex = np.maximum(np.abs(lx) - box.half_extents[0], 0.0)
        ey = np.maximum(np.abs(ly) - box.half_extents[1], 0.0)
        blocked = ex * ex + ey * ey <= r * r
        m.cells[blocked] = int(CellState.UNTRAVERSABLE)
    return m


# ---------------------------------------------------------------------------
# feature sampling


def sample_feature_points(cfg: SceneConfig) -> dict[int, tuple[float, float, float]]:
    """Deterministic corner-like points along footprint edges at two heights."""
    features: dict[int, tuple[float, float, float]] = {}
    fid = 0
    for box in cfg.obstacles:
        hx, hy = box.half_extents
        corners = [(-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)]
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        heights = sorted({0.1, box.top_height})
        for k in range(4):
            ax, ay = corners[k]
            bx, by = corners[(k + 1) % 4]
            length = math.hypot(bx - ax, by - ay)
            n_pts = max(1, math.floor(length / cfg.feature_spacing + 1e-9))
            for m_idx in range(n_pts):
                frac = m_idx * cfg.feature_spacing / length
                lx = ax + frac * (bx - ax)
                ly = ay + frac * (by - ay)
                wx = box.center[0] + c * lx - s * ly
                wy = box.center[1] + s * lx + c * ly
                for z in heights:
                    features[fid] = (wx, wy, z)
                    fid += 1
    return features


# ---------------------------------------------------------------------------
# simulation


def _odometry(
    cam_poses: Sequence[tuple[float, float, float]], cfg: SceneConfig
) -> list[tuple[float, Optional[tuple[float, float, float]]]]:
    """Angular speed and (noisy) odometry from the previous frame, frame by frame; frame 0 has none."""
    rng = np.random.default_rng(cfg.rng_seed)
    add_noise = cfg.odom_sigma_trans > 0 or cfg.odom_sigma_rot > 0
    out = [(0.0, None)]
    for prev, cam in zip(cam_poses, cam_poses[1:]):
        rel = se2_compose(se2_inverse(Pose2(*prev)), Pose2(*cam))
        omega = wrap_angle(cam[2] - prev[2]) * cfg.fps
        if add_noise:
            eps = rng.normal(0.0, 1.0, size=3)
            rel = Pose2(
                rel.x + cfg.odom_sigma_trans * eps[0],
                rel.y + cfg.odom_sigma_trans * eps[1],
                rel.theta + cfg.odom_sigma_rot * eps[2],
            )
        out.append((omega, rel.as_tuple()))
    return out


def _render_features(
    cfg: SceneConfig,
    cams: np.ndarray,
    origin: np.ndarray,
    cylinders: Sequence[tuple[np.ndarray, float]],
    F: np.ndarray,
    fids: np.ndarray,
) -> list[np.ndarray]:
    """Each frame's rows of the features ``F`` (ids ``fids``) that lie in front and inside the image."""
    intr = cfg.intrinsics
    u, v, depth = intr.project(cams, F)
    cand = (depth > _RAY_EPS) & (u >= 0) & (u < intr.image_width) & (v >= 0) & (v < intr.image_height)
    rows, cols = np.nonzero(cand)
    # Sight lines only for the kept (frame, feature) pairs; every test is elementwise, so each keeps its bits.
    pair_cylinders = [(axis_xy[rows, 0], height) for axis_xy, height in cylinders]
    visible = ~_blocked_any(origin[rows, 0], F[cols], cfg.obstacles, pair_cylinders)
    out = np.empty(len(rows), FEATURE_DTYPE)
    columns = (fids[cols], u[rows, cols], v[rows, cols], depth[rows, cols], visible)
    for name, column in zip(FEATURE_DTYPE.names, columns):
        out[name] = column
    return np.split(out, np.cumsum(cand.sum(axis=1))[:-1])


def _render_detections(
    cfg: SceneConfig,
    cams: np.ndarray,
    origin: np.ndarray,
    cylinders: Sequence[tuple[np.ndarray, float]],
) -> tuple[list[list[HumanDetection]], list[list[tuple[int, float]]]]:
    """Each frame's detection boxes, one per human whose head is in the image and in clear sight, and their truth.

    ``cylinders`` holds each human's body axis, one (x, y) per frame, and
    height.  The truth is each box's walker index and range, as
    ``GroundTruth.detected`` holds them.
    """
    intr = cfg.intrinsics
    detections: list[list[HumanDetection]] = [[] for _ in cams]
    detected: list[list[tuple[int, float]]] = [[] for _ in cams]
    for h_idx, (axis_xy, bh) in enumerate(cylinders):
        others = cylinders[:h_idx] + cylinders[h_idx + 1 :]
        n_axis = int(round(bh / _BODY_SAMPLE_STEP)) + 1
        axis_pts = np.empty((len(cams), n_axis, 3))
        axis_pts[..., :2] = axis_xy
        axis_pts[..., 2] = np.linspace(0.0, bh, n_axis)
        u_a, v_a, z_a = intr.project(cams, axis_pts)
        head_u, head_v, head_z = u_a[:, -1], v_a[:, -1], z_a[:, -1]
        in_view = np.flatnonzero(
            (head_z > _RAY_EPS)
            & (0 <= head_u) & (head_u < intr.image_width)
            & (0 <= head_v) & (head_v < intr.image_height)
        )
        # Sight lines only for the frames whose head is in view; every test is elementwise.
        in_view_others = [(xy[in_view], height) for xy, height in others]
        blocked = _blocked_any(origin[in_view], axis_pts[in_view], cfg.obstacles, in_view_others)
        v_a, head_u, head_z = v_a[in_view], head_u[in_view], head_z[in_view]
        y_min = np.where(blocked, np.inf, v_a).min(axis=1)
        y_max = np.where(blocked, -np.inf, v_a).max(axis=1)
        y_max = np.where(y_max <= y_min, y_min + 1e-6, y_max)  # single visible sample: keep the box valid
        half_w = intr.f * HUMAN_BODY_RADIUS / head_z
        for j in np.flatnonzero(~blocked[:, -1]).tolist():
            k = int(in_view[j])
            detections[k].append(
                HumanDetection(
                    float(head_u[j] - half_w[j]),
                    float(head_u[j] + half_w[j]),
                    float(y_min[j]),
                    float(y_max[j]),
                )
            )
            detected[k].append((h_idx, float(head_z[j])))
    return detections, detected


def simulate_sequence(cfg: SceneConfig) -> tuple[list[FrameObservation], GroundTruth]:
    """Render the full observation sequence at cfg.fps, plus ground truth.

    Frames run from t=0 through the end of the robot trajectory, endpoints
    inclusive.  Identical configs (including rng_seed) produce identical
    output.  Projection runs on blocks of ``_FRAME_BLOCK`` frames at once;
    sight-line tests run only for what a frame keeps: the (frame, feature)
    pairs in front of the camera and inside the image, and the frames whose
    human head is.
    """
    intr = cfg.intrinsics
    feature_points = sample_feature_points(cfg)
    fids = np.array(sorted(feature_points), dtype=np.int64)
    F = np.array([feature_points[fid] for fid in fids.tolist()], dtype=float).reshape(-1, 3)

    n_frames = int(math.floor(cfg.robot.duration * cfg.fps + 1e-9)) + 1
    times = [k / cfg.fps for k in range(n_frames)]
    cam_poses = []
    for t in times:
        rx, ry, heading = cfg.robot.pose_at(t)
        cam_poses.append((rx, ry, wrap_angle(heading + cfg.camera_yaw_offset)))
    human_positions = [[h.pose_at(t)[:2] for h in cfg.humans] for t in times]
    odometry = _odometry(cam_poses, cfg)

    cams_all = np.array(cam_poses, dtype=float)
    # (frames, 1, 3): one camera centre per frame, broadcast over that frame's targets.
    origins = np.column_stack([cams_all[:, :2], np.full(n_frames, intr.cam_height)])[:, None, :]
    xy_all = np.array(human_positions, dtype=float).reshape(n_frames, len(cfg.humans), 1, 2)
    frames: list[FrameObservation] = []
    detected: list[list[tuple[int, float]]] = []
    for start in range(0, n_frames, _FRAME_BLOCK):
        block = slice(start, start + _FRAME_BLOCK)
        cams, origin = cams_all[block], origins[block]
        cylinders = [(xy_all[block, h_idx], h.body_height) for h_idx, h in enumerate(cfg.humans)]
        features = _render_features(cfg, cams, origin, cylinders, F, fids)
        detections, block_detected = _render_detections(cfg, cams, origin, cylinders)
        detected += block_detected
        for j, (feature_obs, dets) in enumerate(zip(features, detections)):
            k = start + j
            omega, odom = odometry[k]
            frames.append(FrameObservation(k, times[k], omega, odom, feature_obs, dets))

    truth = GroundTruth(cam_poses, feature_points, human_positions, detected)
    return frames, truth


# ---------------------------------------------------------------------------
# built-in scenarios

_TABLE_HALF = (0.3, 1.25)  # 0.6 m x 2.5 m footprint
_TABLE_TOP = 0.7


def _heading(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.atan2(b[1] - a[1], b[0] - a[0])


def _walk_waypoints(
    polyline: Sequence[tuple[float, float]],
    speed: float,
    turn_seconds: float,
    until: Optional[float] = None,
    start: float = 0.0,
) -> tuple[tuple[float, tuple[float, float, float]], ...]:
    """Waypoints walking a polyline from time ``start``; with ``until`` set, shuttle back and forth."""
    pts = list(polyline)
    wps: list[tuple[float, tuple[float, float, float]]] = []
    t = start
    pos = pts[0]
    yaw = _heading(pts[0], pts[1])
    wps.append((t, (pos[0], pos[1], yaw)))
    forward = True
    while True:
        seq = pts if forward else pts[::-1]
        for a, b in zip(seq, seq[1:]):
            new_yaw = _heading(a, b)
            if new_yaw != yaw:
                t += turn_seconds
                yaw = new_yaw
                wps.append((t, (a[0], a[1], yaw)))
            t += math.hypot(b[0] - a[0], b[1] - a[1]) / speed
            wps.append((t, (b[0], b[1], yaw)))
        if until is None or t >= until:
            return tuple(wps)
        forward = not forward


def _perimeter_robot() -> AgentTrajectory:
    """Counterclockwise loop around the scene; the +90 deg camera faces inward.

    Legs run at 0.3 m/s with 2 s corner turns, closing the 16.2 m loop in 60 s.
    """
    half_pi = math.pi / 2
    wps = (
        (0.0, (0.25, 0.3, 0.0)),
        (9.0, (2.95, 0.3, 0.0)),
        (11.0, (2.95, 0.3, half_pi)),
        (29.0, (2.95, 5.7, half_pi)),
        (31.0, (2.95, 5.7, math.pi)),
        (40.0, (0.25, 5.7, math.pi)),
        (42.0, (0.25, 5.7, -half_pi)),
        (60.0, (0.25, 0.3, -half_pi)),
    )
    return AgentTrajectory("robot", wps)


def builtin_config(kind: str) -> SceneConfig:
    """Deterministic I / L / T scene in the standard 3 m x 6 m area.

    Two 0.6 x 2.5 m tables (top 0.7 m) flank a 1.2 m walkway; the L and T
    variants add one table rotated 90 degrees.  The aisle is kept one cell
    wider than twice the robot radius so the inflated ground-truth map retains
    a corridor for the journey metric.
    """
    kind = kind.upper()
    if kind == "I":
        obstacles = [
            ObstacleBox((0.8, 3.0), _TABLE_HALF, _TABLE_TOP),
            ObstacleBox((2.6, 3.0), _TABLE_HALF, _TABLE_TOP),
        ]
        humans = [
            AgentTrajectory(
                "human",
                _walk_waypoints([(1.7, 0.5), (1.7, 5.5)], speed=0.9, turn_seconds=0.2, until=61.0),
                body_height=1.70,
            )
        ]
    elif kind == "L":
        obstacles = [
            ObstacleBox((0.8, 2.0), _TABLE_HALF, _TABLE_TOP),
            ObstacleBox((2.6, 2.0), _TABLE_HALF, _TABLE_TOP),
            ObstacleBox((1.3, 4.75), _TABLE_HALF, _TABLE_TOP, yaw=math.pi / 2),
        ]
        # The L walker makes one slow pass (exactly one turn), then waits at
        # the arm end.  A companion keeps clear of the stem until the walker
        # is done with it, then shuttles the same lane so the trail covers the
        # corridor across the later robot legs too.
        half_pi = math.pi / 2
        shuttle = (
            (0.0, (2.5, 0.2, half_pi)),
            (29.0, (2.5, 0.2, half_pi)),
            *_walk_waypoints([(1.7, 0.5), (1.7, 3.3)], 0.55, 0.2, until=61.0, start=31.0),
        )
        humans = [
            AgentTrajectory(
                "human",
                (
                    (0.0, (1.7, 0.3, half_pi)),
                    (27.0, (1.7, 3.85, half_pi)),
                    (27.2, (1.7, 3.85, 0.0)),
                    (34.0, (2.55, 3.85, 0.0)),
                ),
                body_height=1.70,
            ),
            AgentTrajectory("human", shuttle, body_height=1.70),
        ]
    elif kind == "T":
        obstacles = [
            ObstacleBox((0.8, 1.75), _TABLE_HALF, _TABLE_TOP),
            ObstacleBox((2.6, 1.75), _TABLE_HALF, _TABLE_TOP),
            ObstacleBox((1.5, 4.8), _TABLE_HALF, _TABLE_TOP, yaw=math.pi / 2),
        ]
        humans = [
            AgentTrajectory(
                "human",
                _walk_waypoints([(1.5, 0.4), (1.5, 3.75), (0.6, 3.75)], speed=0.55, turn_seconds=0.2, until=61.0),
                body_height=1.70,
            ),
            AgentTrajectory(
                "human",
                _walk_waypoints([(2.0, 0.6), (2.0, 3.75), (2.6, 3.75)], speed=0.55, turn_seconds=0.2, until=61.0),
                body_height=1.78,
            ),
        ]
    else:
        raise ValueError(f"unknown builtin scenario {kind!r} (expected I, L or T)")
    return SceneConfig(
        bounds=(0.0, 0.0, 3.0, 6.0),
        obstacles=obstacles,
        humans=humans,
        robot=_perimeter_robot(),
        intrinsics=CameraIntrinsics(),
        name=kind,
    )
