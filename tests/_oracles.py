"""Independent reference implementations used only to cross-check results."""

import functools
import heapq
import math
from typing import Optional, Sequence

import numpy as np

from travmap import mot
from travmap.evidence import (
    Ho3Evidence,
    OcclusionClass,
    PfhEvidence,
    SfmEvidence,
    classify_occlusion,
    infer_pass_pairs,
    landmark_worlds,
    pose_table,
)
from travmap.gridmap import CellState
from travmap.pipeline import _REGION_MARGIN_PX, PairDiag, PipelineResult
from travmap.quality import PathPlan
from travmap.posegraph import (
    OptimizationEvent,
    Pose2,
    PoseGraph,
    _Blocks,
    _solve,
    se2_compose,
    se2_inverse,
    se2_transform,
    wrap_angle,
)
from travmap.scenesim import _RAY_EPS, HUMAN_BODY_RADIUS, CameraIntrinsics, FrameObservation, ObstacleBox

_SQRT2 = math.sqrt(2.0)


def dijkstra_cost(m, start, goal):
    """Independent shortest-path oracle; costs as (straight, diagonal) counts."""
    res = m.resolution
    free = m.cells == int(CellState.TRAVERSABLE)
    if not (free[start[1], start[0]] and free[goal[1], goal[0]]):
        return None

    def to_m(ns, nd):
        return ns * res + nd * (res * _SQRT2)

    best = {start: (0, 0)}
    heap = [(0.0, start)]
    done = set()
    while heap:
        _, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == goal:
            return to_m(*best[node])
        i, j = node
        ns, nd = best[node]
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                ni, nj = i + di, j + dj
                if not (0 <= ni < m.width and 0 <= nj < m.height) or not free[nj, ni]:
                    continue
                cand = (ns + (di == 0 or dj == 0), nd + (di != 0 and dj != 0))
                old = best.get((ni, nj))
                if old is None or to_m(*cand) < to_m(*old):
                    best[(ni, nj)] = cand
                    heapq.heappush(heap, (to_m(*cand), (ni, nj)))
    return None


def plan_path_on_cell_tuples(m, start, goal):
    """The A* ``quality.plan_path`` was before it walked a flat padded grid.

    Kept verbatim (``(i, j)`` tuples, dict costs and parents, a set of closed
    cells, bounds checked per move) so the flat planner can be compared
    against it waypoint for waypoint and cost for cost.
    """
    si, sj = m.world_to_cell(*start)
    gi, gj = m.world_to_cell(*goal)
    cells = m.cells
    free = cells == int(CellState.TRAVERSABLE)
    if not (free[sj, si] and free[gj, gi]):
        return None
    res = m.resolution
    diag = res * _SQRT2

    def to_m(ns, nd):
        return ns * res + nd * diag

    # (di, dj, diagonal steps, straight steps): straight moves first, then diagonals.
    neighbors = (
        (1, 0, 0, 1),
        (-1, 0, 0, 1),
        (0, 1, 0, 1),
        (0, -1, 0, 1),
        (1, 1, 1, 0),
        (1, -1, 1, 0),
        (-1, 1, 1, 0),
        (-1, -1, 1, 0),
    )

    def octile_h(di, dj):
        lo = min(abs(di), abs(dj))
        hi = max(abs(di), abs(dj))
        return (hi - lo, lo)

    start_cell = (si, sj)
    goal_cell = (gi, gj)
    g_counts = {start_cell: (0, 0)}
    parent = {}
    hs, hd = octile_h(gi - si, gj - sj)
    open_heap = [(to_m(hs, hd), sj, si)]
    closed = set()
    width, height = m.width, m.height
    while open_heap:
        _, j, i = heapq.heappop(open_heap)
        node = (i, j)
        if node in closed:
            continue
        closed.add(node)
        if node == goal_cell:
            break
        ns, nd = g_counts[node]
        for di, dj, step_d, step_s in neighbors:
            ni, nj = i + di, j + dj
            if not (0 <= ni < width and 0 <= nj < height) or not free[nj, ni]:
                continue
            neighbor = (ni, nj)
            if neighbor in closed:
                continue
            cand = (ns + step_s, nd + step_d)
            old = g_counts.get(neighbor)
            if old is not None and to_m(*old) <= to_m(*cand):
                continue
            g_counts[neighbor] = cand
            parent[neighbor] = node
            hs, hd = octile_h(gi - ni, gj - nj)
            f = to_m(cand[0] + hs, cand[1] + hd)
            heapq.heappush(open_heap, (f, nj, ni))
    if goal_cell not in closed:
        return None
    path_cells = [goal_cell]
    while path_cells[-1] != start_cell:
        path_cells.append(parent[path_cells[-1]])
    path_cells.reverse()
    ns, nd = g_counts[goal_cell]
    waypoints = [m.cell_to_world(i, j) for i, j in path_cells]
    return PathPlan(waypoints, to_m(ns, nd), path_cells)


def mark_band_one_capsule(m, a, b, half_width, state):
    """The one-capsule rasterizer ``TraversabilityMap.mark_band`` was before capsules were batched.

    Kept verbatim (as a function of the map) so batched rasterization can be
    compared against it bit for bit.
    """
    if half_width < 0:
        raise ValueError("half_width must be >= 0")
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    res = m.resolution
    ox, oy = m.origin
    pad = half_width + res
    i0 = max(0, math.floor((min(ax, bx) - pad - ox) / res))
    i1 = min(m.width, math.ceil((max(ax, bx) + pad - ox) / res) + 1)
    j0 = max(0, math.floor((min(ay, by) - pad - oy) / res))
    j1 = min(m.height, math.ceil((max(ay, by) + pad - oy) / res) + 1)
    if i0 >= i1 or j0 >= j1:
        return
    xs = ox + (np.arange(i0, i1) + 0.5) * res
    ys = oy + (np.arange(j0, j1) + 0.5) * res
    px = xs[None, :] - ax
    py = ys[:, None] - ay
    dx = bx - ax
    dy = by - ay
    seg_len2 = dx * dx + dy * dy
    if seg_len2 == 0.0:
        d2 = px * px + py * py
    else:
        t = np.clip((px * dx + py * dy) / seg_len2, 0.0, 1.0)
        d2 = (px - t * dx) ** 2 + (py - t * dy) ** 2
    mask = d2 <= half_width * half_width
    block = m.cells[j0:j1, i0:i1]
    block[mask] = int(state)


def paint_expected_map(records, snapshot, base, enabled, priority, params):
    """Naive per-cell repaint of the ``enabled`` layers on ``base``'s grid, in ``priority.order``, lowest first.

    Takes ``rebuild_map``'s arguments, with the store's records for the
    store; each landmark is the ``SfmEvidence`` record of its feature.  Each
    layer's cells overwrite those of the layers before it; with both human
    layers enabled, ``pfh`` and ``ho3`` each paint only the cells both mark.
    ``params`` gives the radii.  Loops over every cell for every record;
    written without the library's rasterizer or pose helpers so it can serve
    as an oracle for rebuilds.
    """
    origin, resolution, width, height = base.origin, base.resolution, base.width, base.height
    landmarks = {rec.feature_id: rec for rec in records if isinstance(rec, SfmEvidence)}

    def landmark_world(fid):
        lm = landmarks[fid]
        p = snapshot[lm.keyframe_id]
        c, s = math.cos(p.theta), math.sin(p.theta)
        ox, oy = lm.offset
        return (p.x + c * ox - s * oy, p.y + s * ox + c * oy)

    sfm = np.zeros((height, width), dtype=bool)
    pfh = np.zeros((height, width), dtype=bool)
    ho3 = np.zeros((height, width), dtype=bool)

    def paint(grid, a, b, hw):
        dx, dy = b[0] - a[0], b[1] - a[1]
        seg_len2 = dx * dx + dy * dy
        for j in range(height):
            cy = origin[1] + (j + 0.5) * resolution
            for i in range(width):
                cx = origin[0] + (i + 0.5) * resolution
                px, py = cx - a[0], cy - a[1]
                if seg_len2 == 0.0:
                    d2 = px * px + py * py
                else:
                    t = (px * dx + py * dy) / seg_len2
                    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
                    d2 = (px - t * dx) ** 2 + (py - t * dy) ** 2
                if d2 <= hw * hw:
                    grid[j, i] = True

    last_point = {}
    for rec in records:
        if isinstance(rec, SfmEvidence):
            if "sfm" not in enabled:
                continue
            w = landmark_world(rec.feature_id)
            paint(sfm, w, w, params.robot_radius)
        elif isinstance(rec, PfhEvidence):
            if "pfh" not in enabled:
                continue
            p = snapshot[rec.keyframe_id]
            c, s = math.cos(p.theta), math.sin(p.theta)
            w = (p.x + c * rec.offset[0] - s * rec.offset[1], p.y + s * rec.offset[0] + c * rec.offset[1])
            prev = last_point.get(rec.track_id, w)
            paint(pfh, prev, w, params.trail_half_width)
            last_point[rec.track_id] = w
        elif isinstance(rec, Ho3Evidence):
            if "ho3" not in enabled:
                continue
            paint(ho3, landmark_world(rec.front_id), landmark_world(rec.behind_id), params.passage_half_width)

    if "pfh" in enabled and "ho3" in enabled:
        pfh = ho3 = pfh & ho3
    layers = {
        "sfm": (sfm, CellState.UNTRAVERSABLE),
        "pfh": (pfh, CellState.TRAVERSABLE),
        "ho3": (ho3, CellState.TRAVERSABLE),
    }
    out = np.full((height, width), int(CellState.UNKNOWN), dtype=np.uint8)
    for layer in priority.order:
        if layer in enabled:
            painted, state = layers[layer]
            out[painted] = int(state)
    return out


def rebuild_endpoints(records, snapshot, enabled=("sfm", "pfh", "ho3")):
    """Per-record reference for the band ends ``rebuild_map`` marks: {layer: (a, b)}, (N, 2) arrays in log order.

    Each end is placed on its own by ``se2_transform``; a disk is a band from
    a point to itself, a trail point's band starts at its track's previous
    point (at itself for the track's first), and each landmark is the
    ``SfmEvidence`` record of its feature.
    """
    landmarks = {rec.feature_id: rec for rec in records if isinstance(rec, SfmEvidence)}

    def landmark_world(fid):
        lm = landmarks[fid]
        return se2_transform(snapshot[lm.keyframe_id], lm.offset)

    ends = {layer: [] for layer in enabled}
    last_point = {}
    for rec in records:
        if isinstance(rec, SfmEvidence) and "sfm" in ends:
            w = landmark_world(rec.feature_id)
            ends["sfm"].append((w, w))
        elif isinstance(rec, PfhEvidence) and "pfh" in ends:
            w = se2_transform(snapshot[rec.keyframe_id], rec.offset)
            ends["pfh"].append((last_point.get(rec.track_id, w), w))
            last_point[rec.track_id] = w
        elif isinstance(rec, Ho3Evidence) and "ho3" in ends:
            ends["ho3"].append((landmark_world(rec.front_id), landmark_world(rec.behind_id)))
    stacked = {layer: np.array(pairs, dtype=float).reshape(-1, 2, 2) for layer, pairs in ends.items()}
    return {layer: (pairs[:, 0], pairs[:, 1]) for layer, pairs in stacked.items()}


# Kinematics frame by frame: the simulator's per-frame steps before it
# computed all frames at once, kept as the reference they are checked against.


def trajectory_pose_at(trajectory, t: float) -> tuple[float, float, float]:
    """``AgentTrajectory.poses_at`` at one time, scanning the waypoints from the start."""
    wps = trajectory.waypoints
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


def odometry_per_frame(cam_poses, cfg) -> list[tuple[float, Optional[tuple[float, float, float]]]]:
    """``scenesim._odometry`` as (angular speed, odometry) per frame, composing ``Pose2`` steps.

    The noise is three draws per frame; ``tolist`` keeps them plain floats.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    add_noise = cfg.odom_sigma_trans > 0 or cfg.odom_sigma_rot > 0
    out = [(0.0, None)]
    for prev, cam in zip(cam_poses, cam_poses[1:]):
        rel = se2_compose(se2_inverse(Pose2(*prev)), Pose2(*cam))
        omega = wrap_angle(cam[2] - prev[2]) * cfg.fps
        if add_noise:
            eps = rng.normal(0.0, 1.0, size=3).tolist()
            rel = Pose2(
                rel.x + cfg.odom_sigma_trans * eps[0],
                rel.y + cfg.odom_sigma_trans * eps[1],
                rel.theta + cfg.odom_sigma_rot * eps[2],
            )
        out.append((omega, rel.as_tuple()))
    return out


class BehindCameraError(ValueError):
    """Projection requested for a point at or behind the camera plane."""


def project_point(
    intr: CameraIntrinsics,
    cam_pose: tuple[float, float, float],
    p: tuple[float, float, float],
) -> tuple[float, float, float]:
    """Pinhole projection of a world point; raises for points not in front."""
    pts = np.array([p], dtype=float)
    u, v, depth = intr.project(cam_pose, pts)
    if depth[0] <= 0:
        raise BehindCameraError(f"point {p} is behind the camera (depth {depth[0]:.3f})")
    return float(u[0]), float(v[0]), float(depth[0])


# Sight lines, each term computed per (origin, target) pair: the simulator's
# formulas before it computed each term once per feature or per frame, kept
# as the reference it is checked against.


def slab(o, d, lo: float, hi: float):
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


def _penetrates(nears, fars) -> np.ndarray:
    """True where [0, 1 - _RAY_EPS) and every (near, far) interval of the segment parameter share more than _RAY_EPS."""
    t_enter = functools.reduce(np.maximum, nears, 0.0)
    t_exit = functools.reduce(np.minimum, fars, 1.0 - _RAY_EPS)
    return (t_exit - t_enter) > _RAY_EPS


def box_blocked(origin: np.ndarray, targets: np.ndarray, box: ObstacleBox) -> np.ndarray:
    """True where the segment origin->target penetrates the box volume.

    ``origin`` (..., 3) and ``targets`` (..., 3) broadcast against each other.
    """
    c, s = math.cos(box.yaw), math.sin(box.yaw)

    def in_box_frame(p):
        dx = p[..., 0] - box.center[0]
        dy = p[..., 1] - box.center[1]
        return c * dx + s * dy, -s * dx + c * dy, p[..., 2]

    o = in_box_frame(origin)
    t = in_box_frame(targets)
    lo = (-box.half_extents[0], -box.half_extents[1], 0.0)
    hi = (box.half_extents[0], box.half_extents[1], box.top_height)
    slabs = [slab(o[axis], t[axis] - o[axis], lo[axis], hi[axis]) for axis in range(3)]
    return _penetrates(*zip(*slabs))


def cylinder_blocked(
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
    z_lo, z_hi = slab(origin[..., 2], d[..., 2], 0.0, height)
    return _penetrates((t_lo, z_lo), (t_hi, z_hi))


def blocked_any(
    origin: np.ndarray,
    targets: np.ndarray,
    obstacles: Sequence[ObstacleBox],
    cylinders: Sequence[tuple[np.ndarray, float]],
) -> np.ndarray:
    """True where any box or body cylinder ((x, y) axis, height) blocks origin->target; shapes broadcast."""
    blocked = np.zeros(np.broadcast_shapes(origin.shape[:-1], targets.shape[:-1]), dtype=bool)
    for box in obstacles:
        blocked |= box_blocked(origin, targets, box)
    for axis_xy, height in cylinders:
        blocked |= cylinder_blocked(origin, targets, axis_xy, HUMAN_BODY_RADIUS, height)
    return blocked


def occlusion_test(
    cam_pose: tuple[float, float, float],
    cam_height: float,
    target: tuple[float, float, float],
    obstacles: Sequence[ObstacleBox],
    humans: Sequence[tuple[tuple[float, float], float]] = (),
    exclude_human: Optional[int] = None,
) -> bool:
    """True when the line of sight from the camera to ``target`` is clear.

    ``humans`` holds ((x, y), body_height) cylinders; ``exclude_human`` skips
    the target's own body.
    """
    origin = np.array([cam_pose[0], cam_pose[1], cam_height])
    targets = np.array([target], dtype=float)
    cylinders = [(np.asarray(xy, dtype=float), h) for idx, (xy, h) in enumerate(humans) if idx != exclude_human]
    return not bool(blocked_any(origin, targets, obstacles, cylinders)[0])


def infer_pass_pair(
    ids: np.ndarray, depths: np.ndarray, front: np.ndarray, behind: np.ndarray, human_depth: float
) -> Optional[tuple[int, int]]:
    """Positions of the tightest (front, behind) feature pair bracketing the human, if any.

    The one-set case of ``infer_pass_pairs``: of the features with ids
    ``ids`` and depths ``depths``, the front one is the deepest in the FRONT
    mask still nearer than the human, the behind one the shallowest in the
    BEHIND mask still farther.  Ties go to the lower id.
    """
    sets = np.zeros(len(ids), dtype=np.intp)
    i, j = infer_pass_pairs(sets, ids, depths, front, behind, np.array([human_depth], dtype=float))
    return None if i[0] < 0 else (int(i[0]), int(j[0]))


def scalar_estimate_depth(cal, f: float, body_height: float, h_px: float) -> float:
    """``evidence.estimate_depth`` as it was for one detection, before it took arrays."""
    if not h_px > 0:
        raise ValueError("apparent height must be positive")
    if not 0 < f < math.inf:
        raise ValueError(f"f must be finite and positive, got {f}")
    if not 0 < body_height < math.inf:
        raise ValueError(f"body_height must be finite and positive, got {body_height}")
    return cal.k * f * body_height / h_px


def scalar_apparent_height_px(y_min: float, intr: CameraIntrinsics, body_height: float) -> Optional[float]:
    """``evidence.apparent_height_px`` as it was for one detection, before it took arrays; None for NaN."""
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


def scalar_human_map_position(
    cam_pose: tuple[float, float, float], intr: CameraIntrinsics, bbox: tuple[float, float, float, float], depth: float
) -> tuple[float, float]:
    """``evidence.human_map_position`` as it was for one detection, before it took arrays."""
    if not 0 < depth < math.inf:
        raise ValueError(f"depth must be positive and finite, got {depth}")
    return se2_transform(Pose2(*cam_pose), intr.floor_offset(0.5 * (bbox[0] + bbox[1]), depth))


def pass_between_per_frame(
    res: PipelineResult,
    intr: CameraIntrinsics,
    frame: FrameObservation,
    prev_frame: FrameObservation,
    matched: list[mot.HumanTrack],
    cam: Pose2,
    table: tuple[np.ndarray, np.ndarray],
) -> None:
    """The per-frame pass-between stage the pipeline's frame loop ran before it ran in blocks.

    Kept as it was, but for its occlusion rows, which name no walker now, as
    ``ingest``'s do, so the blocked stage can be compared against it byte for
    byte.  It orders landmarks against each matched human and logs
    straddling pairs as HO3 at once.  A landmark seen in ``frame`` inside
    the human's box is in front; one seen in ``prev_frame``, unseen now and
    predicted inside the box is behind.
    """
    fi = frame.frame_index
    worlds, row = table
    u_pred, _, depth_pred = intr.project(cam.as_tuple(), worlds)

    # Candidates, seen ones first: feature id, column (measured if seen,
    # predicted if not), predicted depth, and image row when last seen.
    now = frame.features[frame.features["visible"]]
    before = prev_frame.features[prev_frame.features["visible"]]
    seen_now = np.zeros(len(row), dtype=bool)  # by feature id
    seen_now[now["feature_id"]] = True
    cand = np.concatenate([now, before[~seen_now[before["feature_id"]]]])
    k = row[cand["feature_id"]]
    seen = np.arange(len(cand)) < len(now)
    keep = (k >= 0) & (seen | (depth_pred[k] > 0))  # k = -1 (no landmark) reads a real row, then is dropped
    cand, k, seen = cand[keep], k[keep], seen[keep]
    u = np.where(seen, cand["u"], u_pred[k])
    id_col, depth_col = cand["feature_id"], depth_pred[k]
    ids, us, depths = id_col.tolist(), u.tolist(), depth_col.tolist()

    for track in matched:
        tp = track.last
        if tp.depth is None:
            continue
        bbox = tp.bbox
        inner = (bbox[0] + _REGION_MARGIN_PX, bbox[1] - _REGION_MARGIN_PX, bbox[2], bbox[3])
        if inner[0] >= inner[1]:
            continue
        front, behind = classify_occlusion(u, seen, inner)
        # A landmark seen now occludes the human at the visible-region boundary,
        # so only the column test binds it; one unseen now must also have been
        # last seen within the box's rows.
        behind &= (bbox[2] <= cand["v"]) & (cand["v"] <= bbox[3])
        for i in np.flatnonzero(front | behind).tolist():
            label = OcclusionClass.FRONT if front[i] else OcclusionClass.BEHIND
            # An ``OcclusionDiag`` row but its walker, which the truth join adds.
            res.occlusion_diags.append((fi, track.track_id, ids[i], label, us[i], depths[i], tp.depth))
        pair = infer_pass_pair(id_col, depth_col, front, behind, tp.depth)
        if pair is None:
            continue
        i, j = pair
        assert depths[i] < tp.depth < depths[j], "pass-between pair must straddle the human"
        res.store.add_ho3(ids[i], ids[j], track.track_id)
        res.pair_diags.append(PairDiag(fi, track.track_id, ids[i], ids[j], depths[i], depths[j], tp.depth))


def ingest_per_frame(
    frames: Sequence[FrameObservation],
    intr: CameraIntrinsics,
    params,
    origin: Pose2,
    calibration,
    closures: Sequence[tuple[int, int, Pose2]],
) -> tuple[PipelineResult, list[tuple], list[dict[int, Pose2]]]:
    """``pipeline.ingest`` as one scalar loop over the frames, as it ran before the array pass and the log merge.

    Per frame: odometry composed onto the running sum, the keyframe and its
    closure, the pose estimate, each detection's range and position, the
    tracker, then the landmarks (keyframes), trail offsets (kept frames) and
    pass-between (kept frames after a kept frame), each logged at once.
    Pass-between runs ``pass_between_per_frame`` on a landmark table built
    at that frame, from the landmarks so far at the graph's poses then.
    Returns the result, the pass-between jobs as ``(frame, previous frame,
    camera pose, (closure events, landmarks), track id, region)`` and the
    poses before each closure and after the last frame.  A position row
    names its detection by identity, as ``ingest`` did.
    """
    keep = mot.filter_turning_frames(frames, params.omega_max)
    res = PipelineResult(params, frames, calibration, keep, PoseGraph(origin))
    body_height = 1.70
    n_ids = 1 + max(int(f.features["feature_id"].max(initial=-1)) for f in frames)
    partners: dict[int, tuple[int, Pose2]] = {}
    for older, newer, rel in closures:
        partners.setdefault(newer, (older, rel))
    last_closure_kf = -10**9
    odom_acc, kf, prev_kept = Pose2(), 0, None
    jobs, snapshots = [], []
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
                    snapshots.append(res.graph.snapshot())
                    res.graph.add_loop_closure(older, kf, rel)
                    res.events.append(res.graph.optimize())
                    last_closure_kf = kf
        pose_est = se2_compose(res.graph.pose(kf), odom_acc)

        points = []
        for det in frame.detections:
            bbox = (det.x_min, det.x_max, det.y_min, det.y_max)
            h_px = scalar_apparent_height_px(det.y_min, intr, body_height)
            depth = None if h_px is None else scalar_estimate_depth(calibration, intr.f, body_height, h_px)
            world = None if h_px is None else scalar_human_map_position(pose_est.as_tuple(), intr, bbox, depth)
            points.append(mot.TrackPoint(fi, bbox, depth, world))
        mot.step(res.tracks, points, params.gate_px)
        mot.prune(res.tracks)
        confirmed = (t for t in res.tracks if t.state is mot.TrackState.CONFIRMED)
        matched = [t for t in confirmed if t.matched_at(fi) and t.last.depth is not None]
        for track in matched:
            tp = track.last
            det = next(d for d, point in enumerate(points) if point is tp)
            res.position_diags.append((fi, track.track_id, det, tp.world, tp.depth))

        if at_keyframe:
            seen = frame.features[frame.features["visible"]]
            for fid, u, depth in zip(seen["feature_id"].tolist(), seen["u"].tolist(), seen["depth"].tolist()):
                if fid not in res.store.landmarks:
                    res.store.add_sfm(fid, kf, intr.floor_offset(u, depth))
        if not keep[fi]:
            prev_kept = None
            continue
        to_kf = se2_inverse(res.graph.pose(kf))
        for track in matched:
            res.store.add_pfh(kf, se2_transform(to_kf, track.last.world), track.track_id)
        if res.store.landmarks and prev_kept is not None and matched:
            table = (len(res.events), len(res.store.landmarks))
            for track in matched:
                tp = track.last
                x_min, x_max = tp.bbox[0] + _REGION_MARGIN_PX, tp.bbox[1] - _REGION_MARGIN_PX
                if x_min < x_max:
                    region = (x_min, x_max, tp.bbox[2], tp.bbox[3], tp.depth)
                    jobs.append((fi, prev_kept.frame_index, pose_est.as_tuple(), table, track.track_id, region))
            landmarks = list(res.store.landmarks.values())
            worlds = landmark_worlds(landmarks, pose_table(res.graph.snapshot()))
            row = np.full(n_ids, -1)
            row[list(res.store.landmarks)] = np.arange(len(landmarks))
            worlds = np.column_stack((worlds, np.zeros(len(worlds))))
            pass_between_per_frame(res, intr, frame, prev_kept, matched, pose_est, (worlds, row))
        prev_kept = frame
    snapshots.append(res.graph.snapshot())
    return res, jobs, snapshots


def posegraph_residual(graph, edge):
    """``PoseGraph._residual`` as it was before the optimizer worked on edge arrays."""
    xi = graph.nodes[edge.i]
    xj = graph.nodes[edge.j]
    err = se2_compose(se2_inverse(edge.rel), se2_compose(se2_inverse(xi), xj))
    return np.array([err.x, err.y, err.theta])


def posegraph_chi2(graph):
    """``PoseGraph.chi2`` as it was before the optimizer worked on edge arrays."""
    total = 0.0
    for edge in graph.edges:
        e = posegraph_residual(graph, edge)
        total += float(e @ edge.info @ e)
    return total


def posegraph_linearize(graph, index):
    """``PoseGraph._linearize``: the per-edge loop the edge-array linearization replaced."""
    n = 3 * len(index)
    H = np.zeros((n, n))
    b = np.zeros(n)
    for edge in graph.edges:
        xi = graph.nodes[edge.i]
        xj = graph.nodes[edge.j]
        ci, si = math.cos(xi.theta), math.sin(xi.theta)
        cz, sz = math.cos(edge.rel.theta), math.sin(edge.rel.theta)
        RiT = np.array([[ci, si], [-si, ci]])
        dRiT = np.array([[-si, ci], [-ci, -si]])
        RzT = np.array([[cz, sz], [-sz, cz]])
        d = np.array([xj.x - xi.x, xj.y - xi.y])
        e = posegraph_residual(graph, edge)
        A = np.zeros((3, 3))  # d e / d xi
        A[:2, :2] = -RzT @ RiT
        A[:2, 2] = RzT @ (dRiT @ d)
        A[2, 2] = -1.0
        B = np.zeros((3, 3))  # d e / d xj
        B[:2, :2] = RzT @ RiT
        B[2, 2] = 1.0
        omega = edge.info
        ii = index.get(edge.i)
        jj = index.get(edge.j)
        if ii is not None:
            H[ii : ii + 3, ii : ii + 3] += A.T @ omega @ A
            b[ii : ii + 3] += A.T @ omega @ e
        if jj is not None:
            H[jj : jj + 3, jj : jj + 3] += B.T @ omega @ B
            b[jj : jj + 3] += B.T @ omega @ e
        if ii is not None and jj is not None:
            H[ii : ii + 3, jj : jj + 3] += A.T @ omega @ B
            H[jj : jj + 3, ii : ii + 3] += B.T @ omega @ A
    return H, b


def posegraph_far_pairs(graph):
    """The sorted (row, col) pairs of free rows more than one apart that an edge joins, both ways round.

    Row k is the k-th free node by id.
    """
    row = {node_id: k for k, node_id in enumerate(sorted(n for n in graph.nodes if n != 0))}
    pairs = set()
    for edge in graph.edges:
        if edge.i in row and edge.j in row and abs(row[edge.i] - row[edge.j]) > 1:
            pairs.update(((row[edge.i], row[edge.j]), (row[edge.j], row[edge.i])))
    return np.array(sorted(pairs), dtype=np.intp).reshape(-1, 2)


def posegraph_chain_ends(graph):
    """The sorted free rows an edge joins to a free row more than one away: those of ``posegraph_far_pairs``."""
    return np.unique(posegraph_far_pairs(graph))


def posegraph_blocks_from_dense(H, far_at):
    """Cut a dense 3n x 3n ``H`` into the ``posegraph._Blocks`` that ``_solve`` takes, with far blocks at ``far_at``."""
    n = len(H) // 3
    blocks, k = H.reshape(n, 3, n, 3), np.arange(n)
    far_at = np.asarray(far_at, dtype=np.intp).reshape(-1, 2)
    return _Blocks(
        blocks[k, :, k, :],
        blocks[k[:-1], :, k[1:], :],
        blocks[k[1:], :, k[:-1], :],
        blocks[far_at[:, 0], :, far_at[:, 1], :],
        far_at,
    )


def posegraph_dense_from_blocks(blocks):
    """The dense 3n x 3n matrix of ``posegraph._Blocks``, zero outside its blocks."""
    n = len(blocks.diag)
    H, k = np.zeros((n, 3, n, 3)), np.arange(n)
    H[k, :, k, :] = blocks.diag
    H[k[:-1], :, k[1:], :] = blocks.upper
    H[k[1:], :, k[:-1], :] = blocks.lower
    H[blocks.far_at[:, 0], :, blocks.far_at[:, 1], :] = blocks.far
    return H.reshape(3 * n, 3 * n)


def posegraph_chain_solve_padded(D, lower, upper, R):
    """``posegraph._chain_solve`` as it was with the system padded up front to 2^p - 1 rows of identity blocks.

    The odd-even block reduction is the same one; only where the identity
    rows go differs, so ``_chain_solve`` must return its bytes.
    """
    m, q = len(D), R.shape[2]
    size = 2 ** m.bit_length() - 1
    D = np.concatenate([D, np.broadcast_to(np.eye(3), (size - m, 3, 3))])
    lo, up = np.zeros((2, size, 3, 3))  # lo[k] is the block at (k, k - 1), up[k] the one at (k, k + 1)
    lo[1:m], up[: m - 1] = lower, upper
    R = np.concatenate([R, np.zeros((size - m, 3, q))])
    levels = []
    while len(D):
        F = np.linalg.solve(D[0::2], np.concatenate([lo[0::2], up[0::2], R[0::2]], axis=2))
        f_lo, f_up, f_r = F[:, :, :3], F[:, :, 3:6], F[:, :, 6:]
        l_odd, u_odd = lo[1::2], up[1::2]
        D = D[1::2] - l_odd @ f_up[:-1] - u_odd @ f_lo[1:]
        lo, up = -l_odd @ f_lo[:-1], -u_odd @ f_up[1:]
        R = R[1::2] - l_odd @ f_r[:-1] - u_odd @ f_r[1:]
        levels.append((f_lo, f_up, f_r))
    Y = R  # empty: the last level's one row was eliminated
    for f_lo, f_up, f_r in reversed(levels):
        side = np.concatenate([np.zeros((1, 3, q)), Y, np.zeros((1, 3, q))])
        full = np.empty((2 * len(Y) + 1, 3, q))
        full[1::2] = Y
        full[0::2] = f_r - f_lo @ side[:-1] - f_up @ side[1:]
        Y = full
    return Y[:m]


def posegraph_optimize(graph, max_iters=50, tol=1e-9):
    """``PoseGraph.optimize`` as a scalar loop over ``Pose2`` nodes.

    The edge-array optimizer must reproduce its poses, chi2 trace, iteration
    count and moved-node list bit for bit.  The loop is the scalar one it
    replaced, with a dense ``H`` damped as a whole, except that each step is
    solved by ``posegraph._solve``, the chain solve both share, on the blocks
    ``posegraph_blocks_from_dense`` cuts from the damped ``H`` at the pairs of
    ``posegraph_far_pairs``.  ``_solve`` itself is checked against ``np.linalg.solve`` in
    tests/test_posegraph.py.
    """
    if not graph._connected():
        raise ValueError("pose graph is not connected through node 0")
    free = sorted(n for n in graph.nodes if n != 0)
    index = {node_id: 3 * k for k, node_id in enumerate(free)}
    far_at = posegraph_far_pairs(graph)
    before = {n: graph.nodes[n] for n in free}
    chi = posegraph_chi2(graph)
    trace = [chi]
    lam = 1e-3
    for _ in range(max_iters):
        H, b = posegraph_linearize(graph, index)
        accepted = False
        converged = False
        new_chi = chi
        while lam <= 1e12:
            damping = np.diag(np.maximum(np.diag(H), 1e-12))
            try:
                delta = _solve(posegraph_blocks_from_dense(H + lam * damping, far_at), -b.reshape(-1, 3))
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if np.abs(delta).max() < 1e-13:
                converged = True  # step below machine scale: already optimal
                break
            backup = {n: graph.nodes[n] for n in free}
            for node_id, k in index.items():
                p = graph.nodes[node_id]
                graph.nodes[node_id] = Pose2(
                    float(p.x + delta[k]), float(p.y + delta[k + 1]), float(p.theta + delta[k + 2])
                )
            new_chi = posegraph_chi2(graph)
            if new_chi <= chi:
                accepted = True
                lam = max(lam / 10.0, 1e-15)
                break
            graph.nodes.update(backup)
            lam *= 10.0
        if converged or not accepted:
            break
        improvement = chi - new_chi
        chi = new_chi
        trace.append(chi)
        if improvement < tol:
            break
    updated = tuple(n for n in free if graph.nodes[n].as_tuple() != before[n].as_tuple())
    graph._event_counter += 1
    return OptimizationEvent(graph._event_counter, updated, tuple(trace), len(trace) - 1)
