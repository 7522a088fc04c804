"""Independent reference implementations used only to cross-check results."""

import heapq
import math

import numpy as np

from travmap.evidence import Ho3Evidence, PfhEvidence, SfmEvidence
from travmap.gridmap import CellState

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


def paint_expected_map(
    records,
    snapshot,
    landmarks,
    origin,
    resolution,
    width,
    height,
    enabled=("sfm", "pfh", "ho3"),
    robot_radius=0.5,
    trail_half_width=0.2,
    passage_half_width=0.3,
):
    """Naive per-cell repaint of the evidence under the default layer priority.

    Loops over every cell for every record; written without the library's
    rasterizer or pose helpers so it can serve as an oracle for rebuilds.
    """

    def landmark_world(fid):
        lm = landmarks[fid]
        p = snapshot[lm.anchor_keyframe]
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
            paint(sfm, w, w, robot_radius)
        elif isinstance(rec, PfhEvidence):
            if "pfh" not in enabled:
                continue
            p = snapshot[rec.keyframe_id]
            c, s = math.cos(p.theta), math.sin(p.theta)
            w = (p.x + c * rec.offset[0] - s * rec.offset[1], p.y + s * rec.offset[0] + c * rec.offset[1])
            prev = last_point.get(rec.track_id, w)
            paint(pfh, prev, w, trail_half_width)
            last_point[rec.track_id] = w
        elif isinstance(rec, Ho3Evidence):
            if "ho3" not in enabled:
                continue
            paint(ho3, landmark_world(rec.front_id), landmark_world(rec.behind_id), passage_half_width)

    if "pfh" in enabled and "ho3" in enabled:
        human = pfh & ho3
    elif "pfh" in enabled:
        human = pfh
    elif "ho3" in enabled:
        human = ho3
    else:
        human = np.zeros((height, width), dtype=bool)

    out = np.full((height, width), int(CellState.UNKNOWN), dtype=np.uint8)
    if "sfm" in enabled:
        out[sfm] = int(CellState.UNTRAVERSABLE)
    out[human] = int(CellState.TRAVERSABLE)  # human evidence outranks the feature layer
    return out
