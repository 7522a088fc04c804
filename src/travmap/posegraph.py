"""SE(2) pose graph with Levenberg-Marquardt optimization and change events.

Keyframe poses are graph nodes; odometry and loop-closure constraints are
edges carrying a relative pose measurement and a 3x3 information matrix.
Node 0 is the gauge and never moves.  Optimization is explicit and
asynchronous: adding a loop closure changes no pose until ``optimize`` runs,
which returns an event naming the nodes that moved so evidence consumers can
re-anchor without reprocessing sensor data.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

__all__ = [
    "Pose2",
    "EdgeKind",
    "Edge",
    "OptimizationEvent",
    "PoseGraph",
    "wrap_angle",
    "se2_compose",
    "se2_inverse",
    "se2_transform",
]

_TAU = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    w = math.remainder(theta, _TAU)
    if w <= -math.pi:
        w += _TAU
    return w


@dataclass(frozen=True)
class Pose2:
    """Planar pose (x, y, heading); heading normalized to (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.theta)


def se2_compose(a: Pose2, b: Pose2) -> Pose2:
    """Group composition a . b (apply b in a's frame)."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(a.x + c * b.x - s * b.y, a.y + s * b.x + c * b.y, a.theta + b.theta)


def se2_inverse(a: Pose2) -> Pose2:
    c, s = math.cos(a.theta), math.sin(a.theta)
    return Pose2(-(c * a.x + s * a.y), s * a.x - c * a.y, -a.theta)


def se2_transform(pose: Pose2, point: tuple[float, float]) -> tuple[float, float]:
    """Map a point from ``pose``'s local frame into the world frame."""
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    px, py = point
    return (pose.x + c * px - s * py, pose.y + s * px + c * py)


class EdgeKind(Enum):
    ODOMETRY = "odometry"
    LOOP_CLOSURE = "loop_closure"


@dataclass(frozen=True)
class Edge:
    i: int
    j: int
    rel: Pose2
    info: np.ndarray
    kind: EdgeKind


@dataclass(frozen=True)
class OptimizationEvent:
    """Notification that an optimization pass finished.

    ``updated`` lists node ids whose pose changed; consumers re-read the pose
    snapshot rather than receiving poses in the event, which keeps re-anchoring
    O(evidence records) instead of O(map).
    """

    event_id: int
    updated: tuple[int, ...]
    chi2_trace: tuple[float, ...] = field(default=())
    iterations: int = 0


def _check_information(info: Optional[np.ndarray]) -> np.ndarray:
    if info is None:
        return np.eye(3)
    info = np.asarray(info, dtype=float)
    if info.shape != (3, 3):
        raise ValueError(f"information matrix must be 3x3, got {info.shape}")
    if not np.isfinite(info).all():
        raise ValueError("information matrix must be finite")
    if not np.allclose(info, info.T, atol=1e-12):
        raise ValueError("information matrix must be symmetric")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise ValueError("information matrix must be positive definite") from None
    return info


def _check_finite_pose(pose: Pose2, what: str) -> None:
    if not all(math.isfinite(v) for v in pose.as_tuple()):
        raise ValueError(f"{what} must be finite, got {pose}")


def _parse_numbers(lineno: int, ids: list[str], values: list[str]) -> tuple[list[int], list[float]]:
    """A record's integer ids and finite numbers; errors name the line."""
    try:
        parsed = [int(v) for v in ids], [float(v) for v in values]
    except ValueError:
        raise ValueError(f"line {lineno}: cannot parse {' '.join(ids + values)!r} as ids and numbers") from None
    if not all(math.isfinite(v) for v in parsed[1]):
        raise ValueError(f"line {lineno}: numbers must be finite, got {' '.join(values)}")
    return parsed


# The optimizer works on an (N, 3) node array (row 0 is the gauge) and on edge
# arrays.  Its arithmetic is the scalar SE(2) helpers', bit for bit, so outputs
# keep their bytes: a reordered sum moves poses by ulps and changes the chi2
# traces that runs record.  The row twins of se2_inverse/se2_compose keep their
# operation order and wrap each angle with wrap_angle itself (np.cos/np.sin
# give math.cos/math.sin's bits), and batched ``@`` on stacks runs the BLAS
# kernel of a single 3x3 product.  tests/test_posegraph.py checks the optimizer
# against the scalar reference in tests/_oracles.py.
_EdgeArrays = namedtuple("_EdgeArrays", "i j rel rel_inv info")  # rows of i and j, (E, 3), (E, 3), (E, 3, 3)


def _wrap_rows(theta: np.ndarray) -> np.ndarray:
    return np.fromiter(map(wrap_angle, theta.tolist()), float, len(theta))


def _inverse_rows(p: np.ndarray) -> np.ndarray:
    c, s = np.cos(p[:, 2]), np.sin(p[:, 2])
    return np.stack([-(c * p[:, 0] + s * p[:, 1]), s * p[:, 0] - c * p[:, 1], _wrap_rows(-p[:, 2])], axis=1)


def _compose_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    c, s = np.cos(a[:, 2]), np.sin(a[:, 2])
    x = a[:, 0] + c * b[:, 0] - s * b[:, 1]
    y = a[:, 1] + s * b[:, 0] + c * b[:, 1]
    return np.stack([x, y, _wrap_rows(a[:, 2] + b[:, 2])], axis=1)


def _residual_rows(X: np.ndarray, edges: _EdgeArrays) -> np.ndarray:
    """Each edge's error rel^-1 . (x_i^-1 . x_j) as an (E, 3) array."""
    return _compose_rows(edges.rel_inv, _compose_rows(_inverse_rows(X)[edges.i], X[edges.j]))


def _normal_equations(X: np.ndarray, edges: _EdgeArrays) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton H and b over the free rows 1.. of ``X``; row 0 is the gauge."""
    e = _residual_rows(X, edges)[:, :, None]
    xi, xj = X[edges.i], X[edges.j]
    ci, si = np.cos(xi[:, 2]), np.sin(xi[:, 2])
    cz, sz = np.cos(edges.rel[:, 2]), np.sin(edges.rel[:, 2])
    RiT = np.stack([ci, si, -si, ci], axis=1).reshape(-1, 2, 2)
    dRiT = np.stack([-si, ci, -ci, -si], axis=1).reshape(-1, 2, 2)
    RzT = np.stack([cz, sz, -sz, cz], axis=1).reshape(-1, 2, 2)
    A = np.zeros((len(e), 3, 3))  # d e / d xi
    A[:, :2, :2] = -RzT @ RiT
    A[:, :2, 2] = (RzT @ (dRiT @ (xj[:, :2] - xi[:, :2])[:, :, None]))[:, :, 0]
    A[:, 2, 2] = -1.0
    B = np.zeros((len(e), 3, 3))  # d e / d xj
    B[:, :2, :2] = RzT @ RiT
    B[:, 2, 2] = 1.0
    AtO, BtO = A.transpose(0, 2, 1) @ edges.info, B.transpose(0, 2, 1) @ edges.info
    # np.add.at adds in index order, so every entry of H and b sums its terms
    # edge by edge, in edge order.  The gauge (row 0) maps to negative indices.
    n, at_i, at_j = 3 * (len(X) - 1), 3 * (edges.i[:, None] - 1), 3 * (edges.j[:, None] - 1)
    rows, cols = np.broadcast_arrays(
        np.stack([at_i, at_j, at_i, at_j], axis=1)[..., None] + np.arange(3)[:, None],
        np.stack([at_i, at_j, at_j, at_i], axis=1)[..., None] + np.arange(3),
    )
    blocks = np.stack([AtO @ A, BtO @ B, AtO @ B, BtO @ A], axis=1)
    at_b = np.stack([at_i, at_j], axis=1) + np.arange(3)
    grads = np.stack([AtO @ e, BtO @ e], axis=1)[..., 0]
    H, b = np.zeros((n, n)), np.zeros(n)
    keep = (rows >= 0) & (cols >= 0)
    np.add.at(H.reshape(-1), (rows * n + cols)[keep], blocks[keep])
    np.add.at(b, at_b[at_b >= 0], grads[at_b >= 0])
    return H, b


class PoseGraph:
    """Mutable SE(2) keyframe graph; single writer, snapshot readers."""

    def __init__(self, origin: Pose2 = Pose2()):
        self.nodes: dict[int, Pose2] = {0: origin}
        self.edges: list[Edge] = []
        self.next_id = 1
        self._event_counter = 0

    def pose(self, node_id: int) -> Pose2:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown keyframe id {node_id}") from None

    def snapshot(self) -> dict[int, Pose2]:
        """Point-in-time copy of all poses (Pose2 itself is immutable)."""
        return dict(self.nodes)

    def add_keyframe(self, odom: Pose2, info: Optional[np.ndarray] = None) -> int:
        """Append a node at previous_pose . odom, connected by an odometry edge."""
        _check_finite_pose(odom, "odometry")
        info = _check_information(info)
        prev = self.next_id - 1
        node_id = self.next_id
        self.nodes[node_id] = se2_compose(self.nodes[prev], odom)
        self.edges.append(Edge(prev, node_id, odom, info, EdgeKind.ODOMETRY))
        self.next_id += 1
        return node_id

    def add_loop_closure(self, i: int, j: int, rel: Pose2, info: Optional[np.ndarray] = None) -> None:
        """Add a constraint between existing nodes; poses change only on optimize()."""
        if i == j:
            raise ValueError("loop closure endpoints must differ")
        for node_id in (i, j):
            if node_id not in self.nodes:
                raise KeyError(f"unknown keyframe id {node_id}")
        _check_finite_pose(rel, "loop closure")
        info = _check_information(info)
        self.edges.append(Edge(i, j, rel, info, EdgeKind.LOOP_CLOSURE))

    def _connected(self) -> bool:
        adjacency: dict[int, list[int]] = {n: [] for n in self.nodes}
        for edge in self.edges:
            adjacency[edge.i].append(edge.j)
            adjacency[edge.j].append(edge.i)
        seen = {0}
        queue = deque([0])
        while queue:
            for other in adjacency[queue.popleft()]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        return len(seen) == len(self.nodes)

    def _arrays(self) -> tuple[list[int], np.ndarray, _EdgeArrays]:
        """Node ids in row order (gauge first), the node array and the edge arrays."""
        order = [0] + sorted(n for n in self.nodes if n != 0)
        rows = {n: r for r, n in enumerate(order)}
        ij = np.array([(rows[e.i], rows[e.j]) for e in self.edges], dtype=np.intp).reshape(-1, 2)
        rel = np.array([e.rel.as_tuple() for e in self.edges], dtype=float).reshape(-1, 3)
        info = np.array([e.info for e in self.edges], dtype=float).reshape(-1, 3, 3)
        X = np.array([self.nodes[n].as_tuple() for n in order], dtype=float)
        return order, X, _EdgeArrays(ij[:, 0], ij[:, 1], rel, _inverse_rows(rel), info)

    def chi2(self, X: Optional[np.ndarray] = None, edges: Optional[_EdgeArrays] = None) -> float:
        """Sum of e^T info e over the edges, added edge by edge in order.

        At the current poses by default.  ``optimize`` evaluates every trial
        step here, passing the trial node array and the edge arrays it built
        once, so each trial step is one ``chi2`` call (as perfbench counts them).
        """
        if X is None:
            _, X, edges = self._arrays()
        e = _residual_rows(X, edges)
        total = 0.0
        for q in (e[:, None, :] @ edges.info @ e[:, :, None]).ravel().tolist():
            total += q
        return total

    def optimize(self, max_iters: int = 50, tol: float = 1e-9) -> OptimizationEvent:
        """Levenberg-Marquardt over all nodes but the gauge (node 0).

        Accepted steps never increase chi2.  Terminates after ``max_iters``
        accepted steps or once the chi2 improvement drops below ``tol``.
        Steps move the node array; the poses are written back once, at the end.
        """
        if not self._connected():
            raise ValueError("pose graph is not connected through node 0")
        order, start, edges = self._arrays()
        X = start
        chi = self.chi2(X, edges)
        trace = [chi]
        lam = 1e-3
        for _ in range(max_iters):
            H, b = _normal_equations(X, edges)
            damping = np.diag(np.maximum(np.diag(H), 1e-12))
            trial = None
            while lam <= 1e12:
                try:
                    delta = np.linalg.solve(H + lam * damping, -b)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                if np.abs(delta).max(initial=0.0) < 1e-13:
                    break  # step below machine scale: already optimal
                trial = X.copy()
                trial[1:] += delta.reshape(-1, 3)
                trial[1:, 2] = _wrap_rows(trial[1:, 2])
                new_chi = self.chi2(trial, edges)
                if new_chi <= chi:
                    lam = max(lam / 10.0, 1e-15)
                    break
                trial = None
                lam *= 10.0
            if trial is None:
                break
            X, improvement, chi = trial, chi - new_chi, new_chi
            trace.append(chi)
            if improvement < tol:
                break
        if X is not start:
            for node_id, (x, y, theta) in zip(order[1:], X[1:].tolist()):
                self.nodes[node_id] = Pose2(x, y, theta)
        moved = (X[1:] != start[1:]).any(axis=1).tolist()
        self._event_counter += 1
        updated = tuple(n for n, m in zip(order[1:], moved) if m)
        return OptimizationEvent(self._event_counter, updated, tuple(trace), len(trace) - 1)

    # -- plain-text graph interchange (VERTEX_SE2 / EDGE_SE2 lines) ----------

    def dumps(self) -> str:
        lines = []
        for node_id in sorted(self.nodes):
            p = self.nodes[node_id]
            lines.append(f"VERTEX_SE2 {node_id} {float(p.x)!r} {float(p.y)!r} {float(p.theta)!r}")
        for edge in self.edges:
            m = edge.info
            upper = (m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2])
            vals = " ".join(repr(float(v)) for v in upper)
            r = edge.rel
            lines.append(f"EDGE_SE2 {edge.i} {edge.j} {float(r.x)!r} {float(r.y)!r} {float(r.theta)!r} {vals}")
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "PoseGraph":
        """Parse VERTEX_SE2/EDGE_SE2 lines.

        Edge kind is not part of the interchange format; edges joining
        consecutive ids are read back as odometry, all others as loop closures.
        """
        graph = cls.__new__(cls)
        graph.nodes = {}
        graph.edges = []
        graph._event_counter = 0
        edge_lines = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "VERTEX_SE2":
                if len(parts) != 5:
                    raise ValueError(f"line {lineno}: VERTEX_SE2 needs id x y theta")
                (node_id,), pose = _parse_numbers(lineno, parts[1:2], parts[2:])
                if node_id in graph.nodes:
                    raise ValueError(f"line {lineno}: duplicate VERTEX_SE2 id {node_id}")
                graph.nodes[node_id] = Pose2(*pose)
            elif parts[0] == "EDGE_SE2":
                if len(parts) != 12:
                    raise ValueError(f"line {lineno}: EDGE_SE2 needs i j dx dy dtheta + 6 info entries")
                (i, j), numbers = _parse_numbers(lineno, parts[1:3], parts[3:])
                if i == j:
                    raise ValueError(f"line {lineno}: EDGE_SE2 endpoints must differ, got {i} {j}")
                a, b_, c, d, e, f = numbers[3:]
                try:
                    info = _check_information(np.array([[a, b_, c], [b_, d, e], [c, e, f]]))
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                kind = EdgeKind.ODOMETRY if j == i + 1 else EdgeKind.LOOP_CLOSURE
                graph.edges.append(Edge(i, j, Pose2(*numbers[:3]), info, kind))
                edge_lines.append(lineno)
            else:
                raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
        if 0 not in graph.nodes:
            raise ValueError("graph has no node 0")
        for lineno, edge in zip(edge_lines, graph.edges):
            for node_id in (edge.i, edge.j):
                if node_id not in graph.nodes:
                    raise ValueError(f"line {lineno}: edge references unknown node {node_id}")
        graph.next_id = max(graph.nodes) + 1
        return graph
