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
from .posegraph import _compose_rows, _inverse_rows, _wrap_rows

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
    """Piecewise-linear timed path of (t, (x, y, yaw)) waypoints; yaw interpolates along the shortest arc."""

    role: str  # "human" | "robot"
    waypoints: tuple[tuple[float, tuple[float, float, float]], ...]
    body_height: Optional[float] = None

    def __post_init__(self):
        if self.role not in ("human", "robot"):
            raise ValueError(f"unknown agent role {self.role!r}")
        times = [t for t, _ in self.waypoints]
        if len(times) < 1:
            raise ValueError("trajectory needs at least one waypoint")
        for idx, (t, pose) in enumerate(self.waypoints):
            if len(pose) != 3:
                raise ValueError(f"waypoint {idx} pose must be (x, y, yaw), got {pose!r}")
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

    def poses_at(self, times: np.ndarray) -> np.ndarray:
        """Poses (n, 3) at ``times`` (n,), clamped to the first/last waypoint's pose as given outside their range.

        A time on an interior waypoint takes the segment that ends there, with frac = 1.
        """
        T, P = (np.array(column, dtype=float) for column in zip(*self.waypoints))
        out = np.where((times <= T[0])[:, None], P[0], P[-1])
        inside = np.flatnonzero((T[0] < times) & (times < T[-1]))
        t = times[inside]
        end = np.searchsorted(T, t, side="left")
        p0, p1 = P[end - 1], P[end]
        frac = (t - T[end - 1]) / (T[end] - T[end - 1])
        out[inside, :2] = p0[:, :2] + frac[:, None] * (p1[:, :2] - p0[:, :2])
        out[inside, 2] = _wrap_rows(p0[:, 2] + frac * _wrap_rows(p1[:, 2] - p0[:, 2]))
        return out


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
        # Scenario files set the roles; a role swapped through the API would fail deep in the simulation.
        for idx, human in enumerate(self.humans):
            if human.role != "human":
                raise ValueError(f"humans[{idx}] must have role 'human', got {human.role!r}")
        if self.robot.role != "robot":
            raise ValueError(f"robot must have role 'robot', got {self.robot.role!r}")
        if not any(x_min <= x <= x_max and y_min <= y <= y_max for _, (x, y, _) in self.robot.waypoints):
            raise ValueError(f"robot has no waypoint inside the bounds {self.bounds}")
        if self.robot.duration < 0:  # frames run from t = 0 through the robot's last waypoint
            raise ValueError(f"robot's last waypoint time {self.robot.duration} s is before t = 0, the first frame")
        # Output file and directory names are built from it, so it must not leave the output directory.
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise ValueError(f"name must be a plain file-name part (no '/', '\\' or NUL), got {self.name!r}")
        check_report_field("name", self.name)

    @property
    def noisy(self) -> bool:
        """Whether the simulation draws odometry noise, the one thing it reads ``rng_seed`` for."""
        return self.odom_sigma_trans > 0 or self.odom_sigma_rot > 0


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
    """Noiseless trajectories and geometry for oracle checks, as plain floats: per frame, the camera and each walker."""

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
    ``d`` is an array; ``o`` is an array of its shape or one number.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo - o) / d
        t2 = (hi - o) / d
    near = np.minimum(t1, t2)
    far = np.maximum(t1, t2)
    parallel = np.abs(d) < 1e-12
    if parallel.any():
        inside = np.broadcast_to((lo <= o) & (o <= hi), near.shape)[parallel]
        near[parallel] = np.where(inside, -np.inf, np.inf)
        far[parallel] = np.where(inside, np.inf, -np.inf)
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


def _footprint_slabs(o, t, box: ObstacleBox):
    """The x and y slabs of ``box`` for the lines from ``o`` to ``t``, both (x, y) in its frame: (nears, fars)."""
    slabs = [_slab(o[k], t[k] - o[k], -box.half_extents[k], box.half_extents[k]) for k in range(2)]
    return tuple(zip(*slabs))


def _circle_crossings(ox, oy, c0, dx, dy, a):
    """The lines (ox, oy) + t * (dx, dy) that can cross a body's circle, and their entry and exit t.

    ``ox``, ``oy`` is the line's start less the body axis, ``c0`` is
    ox**2 + oy**2 - r**2 and ``a`` is dx**2 + dy**2.  Returns the indices of
    the lines that meet the circle or run vertical (a < 1e-18), with their
    t_lo and t_hi; every other line has t_lo = +inf, so it is never blocked.
    """
    b = 2.0 * (ox * dx + oy * dy)
    disc = b * b - 4.0 * a * c0
    tiny = a < 1e-18
    hit = np.flatnonzero((disc >= 0.0) | tiny)
    b, disc, a, c0, tiny = b[hit], disc[hit], a[hit], c0[hit], tiny[hit]
    sq = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (-b - sq) / (2.0 * a)
        t_hi = (-b + sq) / (2.0 * a)
    inside_circle = c0 <= 0.0
    t_lo = np.where(tiny, np.where(inside_circle, -np.inf, np.inf), t_lo)
    t_hi = np.where(tiny, np.where(inside_circle, np.inf, -np.inf), t_hi)
    return hit, t_lo, t_hi


class _SightLines:
    """Sight-line tests from each frame's camera to the features and to the walkers' body axes.

    A sight line runs from the camera at ``cam_height`` to its target and is
    blocked where it penetrates a box or another walker's body cylinder.  Each
    term of the test is computed once, for the thing it depends on:

    * per feature, each box's view of it (its box-frame x and y), and the z
      slab of its sight line for each box and each body, which depend only
      on its z;
    * per body-axis sample (every ``_BODY_SAMPLE_STEP`` from a walker's feet
      to its head), the z slabs likewise;
    * per frame, each box's view of the camera and of each walker, and for
      each body the camera's offset from its axis (``ox``, ``oy``) and ``c0``
      of the circle test;
    * per (frame, target) pair, what needs both ends: the direction, the x and
      y slabs and the circle quadratic, finished only for the pairs that can
      meet the circle.

    A test gathers the per-frame and per-target terms by index.  Every term
    is elementwise, so a pair keeps the bits it would have if tested alone.
    """

    def __init__(
        self,
        boxes: Sequence[ObstacleBox],
        cam_height: float,
        cam_xy: np.ndarray,
        bodies: Sequence[tuple[np.ndarray, float]],
        F: np.ndarray,
    ):
        """``cam_xy`` (frames, 2) holds each frame's camera; ``bodies`` each walker's axis (frames, 2) and height."""
        self.boxes = boxes
        self.cam_height = cam_height
        self.cam_x, self.cam_y = cam_xy[:, 0], cam_xy[:, 1]
        self.cam_in_boxes = [_to_box_frame(self.cam_x, self.cam_y, box) for box in boxes]
        self.body_xy = [xy for xy, _ in bodies]
        self.heights = [height for _, height in bodies]
        self.bodies_in_boxes = [[_to_box_frame(xy[:, 0], xy[:, 1], box) for box in boxes] for xy in self.body_xy]
        self.cam_to_bodies = []
        for xy in self.body_xy:
            ox = self.cam_x - xy[:, 0]
            oy = self.cam_y - xy[:, 1]
            self.cam_to_bodies.append((ox, oy, ox * ox + oy * oy - HUMAN_BODY_RADIUS * HUMAN_BODY_RADIUS))
        tops = [box.top_height for box in boxes]
        self.F = F
        self.features_in_boxes = [_to_box_frame(F[:, 0], F[:, 1], box) for box in boxes]
        self.feature_box_z = self._z_slabs(F[:, 2], tops)
        self.feature_body_z = self._z_slabs(F[:, 2], self.heights)
        self.samples = [np.linspace(0.0, h, int(round(h / _BODY_SAMPLE_STEP)) + 1) for h in self.heights]
        self.sample_box_z = [self._z_slabs(z, tops) for z in self.samples]
        self.sample_body_z = [self._z_slabs(z, self.heights) for z in self.samples]

    def _z_slabs(self, z: np.ndarray, heights: Sequence[float]):
        """For each height h, the slab 0 <= z <= h of the sight lines from the camera to the heights ``z``."""
        dz = z - self.cam_height
        return [_slab(self.cam_height, dz, 0.0, h) for h in heights]

    def features_blocked(self, frames: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """True where a box or a body blocks the sight line from frame ``frames[i]`` to feature ``cols[i]``."""
        blocked = np.zeros(len(frames), dtype=bool)
        for (cx, cy), (fx, fy), (z_near, z_far), box in zip(
            self.cam_in_boxes, self.features_in_boxes, self.feature_box_z, self.boxes
        ):
            (x_near, y_near), (x_far, y_far) = _footprint_slabs((cx[frames], cy[frames]), (fx[cols], fy[cols]), box)
            blocked |= _penetrates((x_near, y_near, z_near[cols]), (x_far, y_far, z_far[cols]))
        dx = self.F[cols, 0] - self.cam_x[frames]
        dy = self.F[cols, 1] - self.cam_y[frames]
        a = dx**2 + dy**2
        for (ox, oy, c0), (z_near, z_far) in zip(self.cam_to_bodies, self.feature_body_z):
            hit, t_lo, t_hi = _circle_crossings(ox[frames], oy[frames], c0[frames], dx, dy, a)
            pairs = cols[hit]
            blocked[hit] |= _penetrates((t_lo, z_near[pairs]), (t_hi, z_far[pairs]))
        return blocked

    def body_blocked(self, walker: int, frames: np.ndarray) -> np.ndarray:
        """True where a box or another body blocks frame ``frames[i]``'s sight line to ``walker``'s sample j.

        The samples are ``samples[walker]``, heights along the body axis.
        A frame's samples share x and y, so the x and y slabs and the circle
        quadratic run per frame, (frames,), and only the z slabs, held per
        sample, (samples,), broadcast to (frames, samples).
        """
        blocked = np.zeros((len(frames), len(self.samples[walker])), dtype=bool)
        for (cx, cy), (tx, ty), (z_near, z_far), box in zip(
            self.cam_in_boxes, self.bodies_in_boxes[walker], self.sample_box_z[walker], self.boxes
        ):
            (x_near, y_near), (x_far, y_far) = _footprint_slabs((cx[frames], cy[frames]), (tx[frames], ty[frames]), box)
            blocked |= _penetrates((x_near[:, None], y_near[:, None], z_near), (x_far[:, None], y_far[:, None], z_far))
        dx = self.body_xy[walker][frames, 0] - self.cam_x[frames]
        dy = self.body_xy[walker][frames, 1] - self.cam_y[frames]
        a = dx**2 + dy**2
        for other, ((ox, oy, c0), (z_near, z_far)) in enumerate(zip(self.cam_to_bodies, self.sample_body_z[walker])):
            if other != walker:
                hit, t_lo, t_hi = _circle_crossings(ox[frames], oy[frames], c0[frames], dx, dy, a)
                blocked[hit] |= _penetrates((t_lo[:, None], z_near), (t_hi[:, None], z_far))
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
    cams: np.ndarray, cfg: SceneConfig
) -> tuple[list[float], list[Optional[tuple[float, float, float]]]]:
    """Each frame's angular speed and (noisy) odometry from the previous pose in ``cams`` (n, 3); frame 0 has none.

    All frames at once, with posegraph's row twins of the ``Pose2`` steps and
    their bits.  The noise is one (n - 1, 3) block from ``default_rng(cfg.rng_seed)``,
    the stream three draws per frame would give.
    """
    rel = _compose_rows(_inverse_rows(cams[:-1]), cams[1:])
    omega = _wrap_rows(cams[1:, 2] - cams[:-1, 2]) * cfg.fps
    if cfg.noisy:
        eps = np.random.default_rng(cfg.rng_seed).normal(0.0, 1.0, size=rel.shape)
        rel[:, :2] += cfg.odom_sigma_trans * eps[:, :2]
        rel[:, 2] = _wrap_rows(rel[:, 2] + cfg.odom_sigma_rot * eps[:, 2])
    return [0.0, *omega.tolist()], [None, *map(tuple, rel.tolist())]


def _render_features(
    cfg: SceneConfig, cams: np.ndarray, start: int, sights: _SightLines, fids: np.ndarray
) -> list[np.ndarray]:
    """Each frame's rows of the features (ids ``fids``) that lie in front and inside the image.

    ``cams`` are the camera poses of frames ``start``, ``start + 1``, ...
    Projection runs per (frame, feature) pair of the block; the sight-line
    test only for the kept pairs, on the terms ``sights`` holds per frame and
    per feature.
    """
    intr = cfg.intrinsics
    u, v, depth = intr.project(cams, sights.F)
    cand = (depth > _RAY_EPS) & (u >= 0) & (u < intr.image_width) & (v >= 0) & (v < intr.image_height)
    rows, cols = np.nonzero(cand)
    visible = ~sights.features_blocked(rows + start, cols)
    out = np.empty(len(rows), FEATURE_DTYPE)
    columns = (fids[cols], u[cand], v[cand], depth[cand], visible)
    for name, column in zip(FEATURE_DTYPE.names, columns):
        out[name] = column
    ends = np.cumsum(cand.sum(axis=1)).tolist()
    return [out[a:b] for a, b in zip([0, *ends], ends)]


def _render_detections(
    cfg: SceneConfig, cams: np.ndarray, start: int, sights: _SightLines
) -> tuple[list[list[HumanDetection]], list[list[tuple[int, float]]]]:
    """Each frame's detection boxes, one per human whose head is in the image and in clear sight, and their truth.

    ``cams`` are the camera poses of frames ``start``, ``start + 1``, ...
    Each human's body axis is sampled every ``_BODY_SAMPLE_STEP`` from the
    floor to the head; the samples are projected per (frame, sample), and
    sight-line tested only in the frames whose head is in view, the x and y
    terms once per frame and the z slab once per sample.  The truth is each
    box's walker index and range, as ``GroundTruth.detected`` holds them.
    """
    intr = cfg.intrinsics
    detections: list[list[HumanDetection]] = [[] for _ in cams]
    detected: list[list[tuple[int, float]]] = [[] for _ in cams]
    for h_idx, (axis_xy, z) in enumerate(zip(sights.body_xy, sights.samples)):
        axis_pts = np.empty((len(cams), len(z), 3))
        axis_pts[..., :2] = axis_xy[start : start + len(cams), None, :]
        axis_pts[..., 2] = z
        u_a, v_a, z_a = intr.project(cams, axis_pts)
        head_u, head_v, head_z = u_a[:, -1], v_a[:, -1], z_a[:, -1]
        in_view = np.flatnonzero(
            (head_z > _RAY_EPS)
            & (0 <= head_u) & (head_u < intr.image_width)
            & (0 <= head_v) & (head_v < intr.image_height)
        )
        blocked = sights.body_blocked(h_idx, in_view + start)
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
    output.  Poses and odometry are computed for all frames at once.
    Projection runs on blocks of ``_FRAME_BLOCK`` frames at once; sight-line
    tests run only for what a frame keeps: the (frame, feature) pairs in
    front of the camera and inside the image, and the frames whose human
    head is.  Their terms that depend on one feature or one frame only are
    computed once for the scene (``_SightLines``); per pair runs only what
    needs both ends.
    """
    intr = cfg.intrinsics
    feature_points = sample_feature_points(cfg)
    fids = np.array(sorted(feature_points), dtype=np.int64)
    F = np.array([feature_points[fid] for fid in fids.tolist()], dtype=float).reshape(-1, 3)

    n_frames = int(math.floor(cfg.robot.duration * cfg.fps + 1e-9)) + 1
    times = np.arange(n_frames) / cfg.fps
    robot = cfg.robot.poses_at(times)
    cams_all = np.column_stack([robot[:, :2], _wrap_rows(robot[:, 2] + cfg.camera_yaw_offset)])
    walkers = np.array([h.poses_at(times)[:, :2] for h in cfg.humans]).reshape(len(cfg.humans), n_frames, 2)
    omegas, odometry = _odometry(cams_all, cfg)

    bodies = [(xy, h.body_height) for xy, h in zip(walkers, cfg.humans)]
    sights = _SightLines(cfg.obstacles, intr.cam_height, cams_all[:, :2], bodies, F)
    timestamps = times.tolist()
    frames: list[FrameObservation] = []
    detected: list[list[tuple[int, float]]] = []
    for start in range(0, n_frames, _FRAME_BLOCK):
        cams = cams_all[start : start + _FRAME_BLOCK]
        features = _render_features(cfg, cams, start, sights, fids)
        detections, block_detected = _render_detections(cfg, cams, start, sights)
        detected += block_detected
        for k, feature_obs, dets in zip(range(start, n_frames), features, detections):
            frames.append(FrameObservation(k, timestamps[k], omegas[k], odometry[k], feature_obs, dets))

    camera_poses = list(map(tuple, cams_all.tolist()))
    human_positions = [list(map(tuple, row)) for row in walkers.transpose(1, 0, 2).tolist()]
    return frames, GroundTruth(camera_poses, feature_points, human_positions, detected)


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
