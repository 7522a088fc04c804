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
    "DEFAULT_PRIORITY",
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

#: Padded cells one capsule block evaluates at once; bounds the working arrays of mark_bands.
_BAND_BLOCK = 1 << 16


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


#: ``fuse``'s and ``rebuild_map``'s default: direct human-trail evidence outranks
#: occlusion inference outranks feature obstacles.  Runs rank by ``PipelineParams.priority``.
DEFAULT_PRIORITY = LayerPriority(("sfm", "ho3", "pfh"))


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
        """Cell index containing world point ``(x, y)``; raises when outside the grid."""
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
        Out-of-bounds portions are clipped silently.  Capsules are evaluated in
        blocks of at most ``_BAND_BLOCK`` cells (a larger window is a block of
        its own), each capsule's window padded to the largest of its block.
        """
        if not half_width >= 0:  # NaN fails too
            raise ValueError(f"half_width must be >= 0, got {half_width}")
        _check_finite(half_width=half_width)
        a, b = (np.asarray(p, dtype=float).reshape(-1, 2) for p in (a, b))
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("segment endpoints must be finite")
        res, origin, size = self.resolution, np.array(self.origin), (self.width, self.height)
        pad = half_width + res
        lo = np.clip(np.floor((np.minimum(a, b) - pad - origin) / res), 0, size).astype(np.intp)
        hi = np.clip(np.ceil((np.maximum(a, b) + pad - origin) / res), 0, size).astype(np.intp)
        extent = np.maximum(hi - lo, 0)  # window (width, height) per capsule; 0 when clipped away
        order = np.argsort(extent.prod(axis=1), kind="stable")  # similar windows share a block
        while len(order):
            # The longest prefix whose count times its largest width and height fits in a block.
            head = extent[order[:_BAND_BLOCK]]
            cost = np.arange(1, len(head) + 1) * np.maximum.accumulate(head, axis=0).prod(axis=1)
            block, order = np.split(order, [max(1, int(np.searchsorted(cost, _BAND_BLOCK, side="right")))])
            self._mark_block(a[block], b[block], lo[block], hi[block], half_width, state)

    def _mark_block(self, a, b, lo, hi, half_width, state) -> None:
        """One padded ``(N, H, W)`` pass of :meth:`mark_bands`; cells past a capsule's window are masked."""
        n_cols, n_rows = (hi - lo).max(axis=0)
        i = lo[:, :1] + np.arange(n_cols)  # (N, W) columns of each window
        j = lo[:, 1:] + np.arange(n_rows)  # (N, H) rows
        ox, oy = self.origin
        px = (ox + (i + 0.5) * self.resolution - a[:, :1])[:, None, :]
        py = (oy + (j + 0.5) * self.resolution - a[:, 1:])[:, :, None]
        dx, dy = (b - a).T[:, :, None, None]
        seg_len2 = dx * dx + dy * dy
        # A zero-length segment divides by 1, so t = 0 and d2 = px*px + py*py.
        t = np.clip((px * dx + py * dy) / np.where(seg_len2 == 0.0, 1.0, seg_len2), 0.0, 1.0)
        mask = (px - t * dx) ** 2 + (py - t * dy) ** 2 <= half_width * half_width
        mask &= (i < hi[:, :1])[:, None, :] & (j < hi[:, 1:])[:, :, None]
        n, jj, ii = np.nonzero(mask)
        self.cells[j[n, jj], i[n, ii]] = int(state)

    def same_geometry(self, other: "TraversabilityMap") -> bool:
        return (
            self.origin == other.origin
            and self.resolution == other.resolution
            and self.width == other.width
            and self.height == other.height
        )


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


def fuse(
    layers: Sequence[tuple[TraversabilityMap, str]],
    priority: LayerPriority = DEFAULT_PRIORITY,
) -> TraversabilityMap:
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

    The PGM itself carries no georeference, so ``origin`` and ``resolution``
    must be supplied by the caller.
    """
    _check_resolution(resolution)
    _check_finite(origin_x=origin[0], origin_y=origin[1])
    if not data.startswith(b"P5"):
        raise ValueError("not a binary (P5) PGM")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        token = _PGM_HEADER_TOKEN.match(data, pos)
        if not token.group(1):
            raise ValueError("truncated PGM header")
        fields.append(int(token.group(1)))
        pos = token.end()
    pos += 1  # single whitespace byte after maxval
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
