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
from collections import deque
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
    if not np.allclose(info, info.T, atol=1e-12):
        raise ValueError("information matrix must be symmetric")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise ValueError("information matrix must be positive definite") from None
    return info


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
        info = _check_information(info)
        self.edges.append(Edge(i, j, rel, info, EdgeKind.LOOP_CLOSURE))

    def _residual(self, edge: Edge) -> np.ndarray:
        xi = self.nodes[edge.i]
        xj = self.nodes[edge.j]
        err = se2_compose(se2_inverse(edge.rel), se2_compose(se2_inverse(xi), xj))
        return np.array([err.x, err.y, err.theta])

    def chi2(self) -> float:
        total = 0.0
        for edge in self.edges:
            e = self._residual(edge)
            total += float(e @ edge.info @ e)
        return total

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

    def _linearize(self, index: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
        n = 3 * len(index)
        H = np.zeros((n, n))
        b = np.zeros(n)
        for edge in self.edges:
            xi = self.nodes[edge.i]
            xj = self.nodes[edge.j]
            ci, si = math.cos(xi.theta), math.sin(xi.theta)
            cz, sz = math.cos(edge.rel.theta), math.sin(edge.rel.theta)
            RiT = np.array([[ci, si], [-si, ci]])
            dRiT = np.array([[-si, ci], [-ci, -si]])
            RzT = np.array([[cz, sz], [-sz, cz]])
            d = np.array([xj.x - xi.x, xj.y - xi.y])
            e = self._residual(edge)
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

    def optimize(self, max_iters: int = 50, tol: float = 1e-9) -> OptimizationEvent:
        """Levenberg-Marquardt over all nodes but the gauge (node 0).

        Accepted steps never increase chi2.  Terminates after ``max_iters``
        accepted steps or once the chi2 improvement drops below ``tol``.
        """
        if not self._connected():
            raise ValueError("pose graph is not connected through node 0")
        free = sorted(n for n in self.nodes if n != 0)
        index = {node_id: 3 * k for k, node_id in enumerate(free)}
        before = {n: self.nodes[n] for n in free}
        chi = self.chi2()
        trace = [chi]
        lam = 1e-3
        for _ in range(max_iters):
            H, b = self._linearize(index)
            accepted = False
            converged = False
            new_chi = chi
            while lam <= 1e12:
                damping = np.diag(np.maximum(np.diag(H), 1e-12))
                try:
                    delta = np.linalg.solve(H + lam * damping, -b)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                if np.abs(delta).max() < 1e-13:
                    converged = True  # step below machine scale: already optimal
                    break
                backup = {n: self.nodes[n] for n in free}
                for node_id, k in index.items():
                    p = self.nodes[node_id]
                    self.nodes[node_id] = Pose2(
                        float(p.x + delta[k]), float(p.y + delta[k + 1]), float(p.theta + delta[k + 2])
                    )
                new_chi = self.chi2()
                if new_chi <= chi:
                    accepted = True
                    lam = max(lam / 10.0, 1e-15)
                    break
                self.nodes.update(backup)
                lam *= 10.0
            if converged or not accepted:
                break
            improvement = chi - new_chi
            chi = new_chi
            trace.append(chi)
            if improvement < tol:
                break
        updated = tuple(n for n in free if self.nodes[n].as_tuple() != before[n].as_tuple())
        self._event_counter += 1
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
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "VERTEX_SE2":
                if len(parts) != 5:
                    raise ValueError(f"line {lineno}: VERTEX_SE2 needs id x y theta")
                graph.nodes[int(parts[1])] = Pose2(float(parts[2]), float(parts[3]), float(parts[4]))
            elif parts[0] == "EDGE_SE2":
                if len(parts) != 12:
                    raise ValueError(f"line {lineno}: EDGE_SE2 needs i j dx dy dtheta + 6 info entries")
                i, j = int(parts[1]), int(parts[2])
                rel = Pose2(float(parts[3]), float(parts[4]), float(parts[5]))
                a, b_, c, d, e, f = (float(v) for v in parts[6:12])
                info = np.array([[a, b_, c], [b_, d, e], [c, e, f]])
                kind = EdgeKind.ODOMETRY if j == i + 1 else EdgeKind.LOOP_CLOSURE
                graph.edges.append(Edge(i, j, rel, info, kind))
            else:
                raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
        if 0 not in graph.nodes:
            raise ValueError("graph has no node 0")
        for edge in graph.edges:
            for node_id in (edge.i, edge.j):
                if node_id not in graph.nodes:
                    raise ValueError(f"edge references unknown node {node_id}")
        graph.next_id = max(graph.nodes) + 1
        return graph
