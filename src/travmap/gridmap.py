"""2D traversability grid maps: transforms, rasterization, priority fusion, PGM I/O.

Cells live on a metric grid anchored at ``origin`` (lower-left corner, meters)
with square cells of side ``resolution``.  Cell index ``(i, j)`` counts columns
from the left (x) and rows from the bottom (y); the flat layout is row-major
with row 0 at the bottom.  PGM export flips rows so image row 0 is the top of
the map, matching the y-down convention of common robot map tooling.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "CellState",
    "LayerPriority",
    "OutOfBoundsError",
    "TraversabilityMap",
    "new_map",
    "empty_like",
    "fuse",
    "export_pgm",
    "import_pgm",
]

# Tolerance absorbing float noise in extent/resolution ratios (3.0/0.1 style).
_EXTENT_EPS = 1e-9

#: (capsule, row) pairs one pass of mark_bands holds; at about 300 bytes of working arrays each, a pass stays near 5 MB.
_BAND_BLOCK = 1 << 14


class CellState(IntEnum):
    """Ternary traversability value of a single grid cell."""

    UNKNOWN = 0
    TRAVERSABLE = 1
    UNTRAVERSABLE = 2


#: Gray levels used by standard occupancy-map servers (free / occupied / unknown).
STATE_TO_GRAY = {
    CellState.TRAVERSABLE: 254,
    CellState.UNTRAVERSABLE: 0,
    CellState.UNKNOWN: 205,
}

#: Gray of each cell state, and cell state of each gray (``_NO_STATE``: the gray has no meaning).
_NO_STATE = 255
_GRAY_LUT = np.zeros(3, dtype=np.uint8)
_STATE_OF_GRAY = np.full(256, _NO_STATE, dtype=np.uint8)
for _state, _gray in STATE_TO_GRAY.items():
    _GRAY_LUT[int(_state)] = _gray
    _STATE_OF_GRAY[_gray] = int(_state)


class OutOfBoundsError(IndexError):
    """World point or cell index outside the grid."""


class LayerPriority:
    """Total order over layer ids; later entries override earlier ones."""

    def __init__(self, order: Iterable[str]):
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ValueError(f"duplicate layer ids in priority {order!r}")
        self.order = order

    def rank(self, layer_id: str) -> int:
        try:
            return self.order.index(layer_id)
        except ValueError:
            raise ValueError(f"layer {layer_id!r} not covered by priority {self.order!r}") from None

    def __repr__(self) -> str:
        return f"LayerPriority({self.order!r})"


@dataclass(eq=False)
class TraversabilityMap:
    """Metric grid of :class:`CellState` values.

    ``cells`` has shape ``(height, width)`` and is indexed ``[j, i]``.
    """

    origin: tuple[float, float]
    resolution: float
    cells: np.ndarray

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    def copy(self) -> "TraversabilityMap":
        return TraversabilityMap(self.origin, self.resolution, self.cells.copy())

    def in_bounds(self, i: int, j: int) -> bool:
        return 0 <= i < self.width and 0 <= j < self.height

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        """Cell index containing world point ``(x, y)``; raises when outside the grid or not finite."""
        if not (math.isfinite(x) and math.isfinite(y)):
            raise OutOfBoundsError(f"point ({x}, {y}) is not finite")
        i = math.floor((x - self.origin[0]) / self.resolution)
        j = math.floor((y - self.origin[1]) / self.resolution)
        if not self.in_bounds(i, j):
            raise OutOfBoundsError(f"point ({x}, {y}) maps to cell ({i}, {j}) outside {self.width}x{self.height} grid")
        return i, j

    def cell_to_world(self, i: int, j: int) -> tuple[float, float]:
        """Center of cell ``(i, j)`` in world coordinates (right-inverse of world_to_cell)."""
        if not self.in_bounds(i, j):
            raise OutOfBoundsError(f"cell ({i}, {j}) outside {self.width}x{self.height} grid")
        return (
            self.origin[0] + (i + 0.5) * self.resolution,
            self.origin[1] + (j + 0.5) * self.resolution,
        )

    def state(self, i: int, j: int) -> CellState:
        if not self.in_bounds(i, j):
            raise OutOfBoundsError(f"cell ({i}, {j}) outside {self.width}x{self.height} grid")
        return CellState(self.cells[j, i])

    def set_cell(self, i: int, j: int, state: CellState) -> None:
        """Set one cell, last writer wins."""
        if not self.in_bounds(i, j):
            raise OutOfBoundsError(f"cell ({i}, {j}) outside {self.width}x{self.height} grid")
        self.cells[j, i] = int(state)

    def mark_band(self, a: tuple[float, float], b: tuple[float, float], half_width: float, state: CellState) -> None:
        """Set every cell whose center lies within ``half_width`` of segment ``ab`` (see :meth:`mark_bands`)."""
        # No rebuild calls this; it stays because perfbench's tracer wraps it by name.
        self.mark_bands([a], [b], half_width, state)

    def mark_bands(self, a, b, half_width: float, state: CellState) -> None:
        """Set every cell whose center lies within ``half_width`` of any segment from ``a[n]`` to ``b[n]``.

        ``a`` and ``b`` are ``(N, 2)`` endpoints; ``a[n] == b[n]`` marks a disk.
        Out-of-bounds portions are clipped silently.

        Capsules are filled a map row at a time.  On each row, the cells whose
        centers lie on the row's chord of the capsule of radius
        ``half_width - delta`` are set with no per-cell work.  The cells on the
        chord of radius ``half_width + delta`` but off the smaller one (a cell
        or two at a chord end, and usually none) get the exact test: ``t`` is
        ``(px*dx + py*dy) / seg_len2`` clipped to [0, 1], and the cell is set
        when ``(px - t*dx)**2 + (py - t*dy)**2 <= half_width**2``, in the
        operation order of the one-capsule rasterizer.  No other cell is set.
        ``delta`` exceeds every rounding error of the chords and of the exact
        test, so the cells set, and the bytes, are those of the exact test run
        on every cell of the map.  At most ``_BAND_BLOCK`` (capsule, row) pairs
        are held at once.
        """
        if not half_width >= 0:  # NaN fails too
            raise ValueError(f"half_width must be >= 0, got {half_width}")
        _check_finite(half_width=half_width)
        a, b = (np.asarray(p, dtype=float).reshape(-1, 2) for p in (a, b))
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("segment endpoints must be finite")
        res, (ox, oy) = self.resolution, self.origin
        # delta.  Every value the chords and the exact test work with (cell centers,
        # offsets from an endpoint, chord ends) is at most `scale` in magnitude and
        # a few roundings from its exact value, so each is off by a small multiple
        # of eps * scale.  In the plane, a computed chord end therefore lies that
        # close to the true capsule of its radius (near a tangent row it can move
        # further along the row, but the capsule is convex and distance is
        # 1-Lipschitz, so what lies between two chord ends keeps the bound), and
        # the exact test decides d <= half_width to the same order.  2**20 * eps *
        # scale is far above that sum, so a center on the chord for
        # half_width - delta passes the exact test and one off the chord for
        # half_width + delta fails it.  Up to a scale of about 1e6 it is also
        # far below a cell, so few cells lie between the two chords.
        extent = abs(ox) + abs(oy) + (self.width + self.height) * res
        scale = extent + np.abs(a).max(initial=0.0) + np.abs(b).max(initial=0.0) + half_width
        delta = 2.0**20 * np.finfo(float).eps * scale
        # The rows whose centers lie within half_width + delta of a segment's y-extent.
        reach = half_width + delta
        first = _first_center(np.minimum(a[:, 1], b[:, 1]) - reach, oy, res, self.height)
        last = _last_center(np.maximum(a[:, 1], b[:, 1]) + reach, oy, res, self.height)
        count = np.maximum(last - first + 1, 0)
        ends = np.cumsum(count)
        start = 0
        while start < len(ends):
            # The longest run of capsules whose (capsule, row) pairs fit in a block, and at least one capsule.
            held = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, held + _BAND_BLOCK, side="right")))
            part = slice(start, stop)
            self._mark_rows(a[part], b[part], first[part], count[part], half_width, delta, state)
            start = stop

    def _mark_rows(self, a, b, first, count, half_width, delta, state) -> None:
        """One pass of :meth:`mark_bands`: capsule ``k``'s rows ``first[k]`` to ``first[k] + count[k] - 1``."""
        res, (ox, oy) = self.resolution, self.origin
        starts = np.cumsum(count) - count  # each capsule's first (capsule, row) pair
        table = np.array([*_capsule_rows(a, b, delta), first - starts])
        *capsule, row0 = np.repeat(table, count, axis=1)  # one column per pair
        j = (row0 + np.arange(len(row0))).astype(np.intp)
        left, right = _row_chords(*capsule, oy + (j + 0.5) * res, half_width, delta)
        i0, i1 = _first_center(left, ox, res, self.width), _last_center(right, ox, res, self.width)
        if half_width <= delta:  # the inner radius is negative: every cell on the outer chord is a border cell
            i0[0], i1[0] = self.width, -1
        # The inner run, clamped into the outer chord so the two border runs beside it do not overlap.
        inner0 = np.minimum(np.maximum(i0[0], i0[1]), i1[1] + 1)
        inner1 = np.maximum(np.minimum(i1[0], i1[1]), inner0 - 1)
        full = inner0 <= inner1
        if full.any():
            # Inner cells: a difference array over the rows and columns the runs span, summed along rows.
            r, c0, c1 = j[full], inner0[full], inner1[full] + 1
            top, base = r.min(), c0.min()
            shape = (r.max() - top + 1, c1.max() - base + 1)
            at = (r - top) * shape[1] - base
            diff = np.bincount(at + c0, minlength=shape[0] * shape[1]) - np.bincount(at + c1, minlength=shape[0] * shape[1])
            inside = diff.reshape(shape).cumsum(axis=1)[:, :-1] > 0  # the last column only ends runs
            self.cells[top : top + shape[0], base : base + shape[1] - 1][inside] = int(state)
        # Border cells: the outer chord's columns left and right of the inner run, each given the exact test.
        begin = np.concatenate([i0[1], inner1 + 1])
        width = np.concatenate([inner0 - i0[1], i1[1] - inner1])
        total = int(width.sum())
        if total:
            pair = np.repeat(np.tile(np.arange(len(j)), 2), width)
            i = np.arange(total) + np.repeat(begin - (np.cumsum(width) - width), width)
            j, k = j[pair], np.searchsorted(np.cumsum(count), pair, side="right")
            px = ox + (i + 0.5) * res - a[k, 0]
            py = oy + (j + 0.5) * res - a[k, 1]
            dx, dy = (b[k] - a[k]).T
            seg_len2 = dx * dx + dy * dy
            # A zero-length segment divides by 1, so t = 0 and d2 = px*px + py*py.
            t = np.clip((px * dx + py * dy) / np.where(seg_len2 == 0.0, 1.0, seg_len2), 0.0, 1.0)
            hit = (px - t * dx) ** 2 + (py - t * dy) ** 2 <= half_width * half_width
            self.cells[j[hit], i[hit]] = int(state)

    def same_geometry(self, other: "TraversabilityMap") -> bool:
        return (
            self.origin == other.origin
            and self.resolution == other.resolution
            and self.width == other.width
            and self.height == other.height
        )


def _first_center(x, o, res, n):
    """Index of the first of ``n`` cells whose center is at or past ``x`` on an axis, ``n`` if none; ``0`` for NaN."""
    return np.fmin(np.fmax(np.ceil((x - o) / res - 0.5), 0), n).astype(np.intp)


def _last_center(x, o, res, n):
    """Index of the last of ``n`` cells whose center is at or before ``x`` on an axis, ``-1`` if none or NaN."""
    return np.fmin(np.fmax(np.floor((x - o) / res - 0.5), -1), n - 1).astype(np.intp)


def _capsule_rows(a, b, delta):
    """``px, py, qx, qy, ux, uy, vx, vy, length`` of :func:`_row_chords`, each with one value per capsule.

    ``p`` and ``q`` are the capsule's ends, ordered so that ``ux = (qx - px) / length >= 0``;
    ``(vx, vy)`` is ``(ux, uy)`` turned to ``vy >= 0``.  A band shorter than
    ``delta / 2`` is left out (direction NaN): the disks of radius
    ``half_width + delta`` cover it with room to spare, and those of radius
    ``half_width - delta`` lie inside the capsule.
    """
    flip = a[:, 0] > b[:, 0]
    px, py = np.where(flip, b.T, a.T)
    qx, qy = np.where(flip, a.T, b.T)
    length = np.hypot(qx - px, qy - py)
    with np.errstate(divide="ignore", invalid="ignore"):
        ux, uy = np.where(2.0 * length > delta, ((qx - px) / length, (qy - py) / length), np.nan)
    turn = np.where(uy < 0, -1.0, 1.0)
    return px, py, qx, qy, ux, uy, turn * ux, turn * uy, length


def _row_chords(px, py, qx, qy, ux, uy, vx, vy, length, y, half_width, delta):
    """Where row ``y`` meets the capsule of radius ``half_width - delta`` (row 0) and ``+ delta`` (row 1).

    All arguments but the last two hold one value per (capsule, row) pair.
    Returns ``(left, right)``, each ``(2, P)``, NaN where the row misses.  The
    capsule is the disk at ``p``, the disk at ``q`` and the band between them,
    so its chord is the hull of their chords.
    """
    r = np.array([[half_width - delta], [half_width + delta]])
    pa, pb = y - py, y - qy
    t = pa * uy
    c = pa * vx
    # A row that misses a disk takes the square root of a negative, and a band
    # along an axis divides by its zero direction component, or overflows when
    # that component is subnormal (2e-313, say).  Each gives NaN or an
    # infinity, and fmin and fmax skip a NaN piece.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        wa, wb = np.sqrt(r * r - pa * pa), np.sqrt(r * r - pb * pb)
        # The band, in x - px: 0 <= (x - px)*ux + t <= length and |(x - px)*vy - c| <= r.
        # On an axis one of the two intervals is the whole row or lies at an
        # infinity; the other is finite, since ux or vy is at least 1/sqrt(2).
        bl = np.maximum(-t / ux, (c - r) / vy)
        br = np.minimum((length - t) / ux, (c + r) / vy)
        gate = 0.0 * np.sqrt(br - bl)  # 0 where the band meets the row, NaN where it does not
        left = np.fmin(np.fmin(px - wa, qx - wb), px + bl + gate)
        right = np.fmax(np.fmax(px + wa, qx + wb), px + br + gate)
    return left, right


def _check_resolution(resolution: float) -> None:
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and positive, got {resolution}")


def _check_finite(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def new_map(x_min: float, y_min: float, x_max: float, y_max: float, resolution: float = 0.10) -> TraversabilityMap:
    """Fresh all-UNKNOWN map covering ``[x_min, x_max] x [y_min, y_max]``."""
    _check_resolution(resolution)
    _check_finite(x_min=x_min, y_min=y_min, x_max=x_max, y_max=y_max)
    if x_max <= x_min or y_max <= y_min:
        raise ValueError(f"empty extent ({x_min}, {y_min}) .. ({x_max}, {y_max})")
    width = max(1, math.ceil((x_max - x_min) / resolution - _EXTENT_EPS))
    height = max(1, math.ceil((y_max - y_min) / resolution - _EXTENT_EPS))
    cells = np.full((height, width), int(CellState.UNKNOWN), dtype=np.uint8)
    return TraversabilityMap((x_min, y_min), resolution, cells)


def empty_like(m: TraversabilityMap) -> TraversabilityMap:
    return TraversabilityMap(m.origin, m.resolution, np.full(m.cells.shape, int(CellState.UNKNOWN), dtype=np.uint8))


def fuse(layers: Sequence[tuple[TraversabilityMap, str]], priority: LayerPriority) -> TraversabilityMap:
    """Cell-wise fusion: the highest-priority non-UNKNOWN layer wins.

    Result is independent of the order layers are listed in; only the
    priority order matters.
    """
    if not layers:
        raise ValueError("need at least one layer")
    ids = [layer_id for _, layer_id in layers]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate layer ids {ids!r}")
    base = layers[0][0]
    for m, layer_id in layers:
        if not m.same_geometry(base):
            raise ValueError(f"layer {layer_id!r} geometry differs from {ids[0]!r}")
    out = empty_like(base)
    for m, _ in sorted(layers, key=lambda pair: priority.rank(pair[1])):
        known = m.cells != int(CellState.UNKNOWN)
        out.cells[known] = m.cells[known]
    return out


def export_pgm(m: TraversabilityMap) -> bytes:
    """Binary PGM (P5, maxval 255), image row 0 = top of the map."""
    header = f"P5\n{m.width} {m.height}\n255\n".encode("ascii")
    pixels = _GRAY_LUT[np.flipud(m.cells)]
    return header + pixels.tobytes()


#: One PGM header field after any whitespace and ``#`` comments (each to the end of its line).
_PGM_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


def import_pgm(data: bytes, origin: tuple[float, float] = (0.0, 0.0), resolution: float = 0.10) -> TraversabilityMap:
    """Parse a P5 PGM produced by :func:`export_pgm` (or a header-commented one) back into a map.

    The header is ``P5``, whitespace, then width, height and maxval, each a
    positive integer in ASCII digits after whitespace or ``#`` comments,
    and exactly one whitespace byte before the pixels.  The PGM itself
    carries no georeference, so ``origin`` and ``resolution`` must be
    supplied by the caller.
    """
    _check_resolution(resolution)
    _check_finite(origin_x=origin[0], origin_y=origin[1])
    if not (data.startswith(b"P5") and data[2:3].isspace()):
        raise ValueError("not a binary (P5) PGM: expected the magic P5 followed by whitespace")
    fields: list[int] = []
    pos = 2
    for name in ("width", "height", "maxval"):
        token = _PGM_HEADER_TOKEN.match(data, pos)
        text = token.group(1)
        if not text:
            raise ValueError(f"truncated PGM header: no {name}")
        if not (text.isdigit() and int(text) >= 1):
            raise ValueError(f"PGM {name} must be a positive integer in ASCII digits, got {text!r}")
        fields.append(int(text))
        pos = token.end()
    if not data[pos : pos + 1].isspace():
        raise ValueError("PGM maxval must be followed by one whitespace byte")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"expected maxval 255, got {maxval}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=pos)
    if pixels.size != width * height:
        raise ValueError(f"expected {width * height} pixels, got {pixels.size}")
    grays = pixels.reshape(height, width)
    bad = grays[_STATE_OF_GRAY[grays] == _NO_STATE]
    if bad.size:
        raise ValueError(f"gray level {int(bad[0])} has no cell-state meaning")
    return TraversabilityMap(origin, resolution, _STATE_OF_GRAY[np.flipud(grays)])
