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
    """Planar pose (x, y, heading); heading normalized to (-pi, pi].

    An infinite heading is rejected.  A NaN heading is kept, as are
    non-finite x and y: the graph's ``add_keyframe`` and ``add_loop_closure``
    reject a pose that is not finite.
    """

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        try:
            theta = wrap_angle(self.theta)
        except ValueError:  # math.remainder of an infinity
            raise ValueError(f"theta must be finite, got {self.theta}") from None
        object.__setattr__(self, "theta", theta)

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
    if not np.allclose(info, info.T, rtol=0.0, atol=1e-12):
        raise ValueError("information matrix must be symmetric")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        raise ValueError("information matrix must be positive definite") from None
    return info


def _check_finite_pose(pose: Pose2, what: str) -> None:
    if not all(math.isfinite(v) for v in pose.as_tuple()):
        raise ValueError(f"{what} must be finite, got {pose}")


# The optimizer works on an (N, 3) node array (row 0 is the gauge) and on edge
# arrays.  Its assembly of the normal equations and its LM arithmetic are the
# scalar SE(2) helpers', bit for bit, so a run's outputs depend on nothing but
# the solve: a reordered sum moves poses by ulps and changes the chi2 traces
# that runs record.  The row twins of se2_inverse/se2_compose keep their
# operation order and wrap each angle with wrap_angle itself (np.cos/np.sin
# give math.cos/math.sin's bits), and batched ``@`` on stacks runs the BLAS
# kernel of a single 3x3 product.  The Hessian is kept as 3x3 blocks, never as
# a dense matrix: the diagonal, the odometry chain's two off-diagonals and one
# block per far pair of rows a loop closure joins (``_Blocks``), each entry
# summed edge by edge in edge order as a dense scatter would sum it.  Each step
# is solved from the blocks by ``_solve``, which the scalar reference shares:
# O(m) along the m chain rows (a level with an even row count gets one
# identity row), plus a dense solve on 3|ends| unknowns, the rows of the
# loop-closure endpoints ``far_at`` names.  tests/test_posegraph.py checks the
# optimizer against the scalar reference in tests/_oracles.py bit for bit, the
# blocks against its dense H, and ``_solve`` against ``np.linalg.solve``.
_EdgeArrays = namedtuple("_EdgeArrays", "i j rel rel_inv info")  # rows of i and j, (E, 3), (E, 3), (E, 3, 3)
# diag[k] is block (k, k), upper[k] block (k, k + 1), lower[k] block (k + 1, k),
# far[f] block (far_at[f, 0], far_at[f, 1]); rows count the free nodes from 0.
_Blocks = namedtuple("_Blocks", "diag upper lower far far_at")
# Where _normal_equations adds each edge's terms: ``terms`` picks the products
# of two free rows among the edges' flattened (E, 4) ii/jj/ij/ji products and
# ``entries`` names, for each of their 9 entries, the entry of the stacked
# diag, upper, lower and far blocks it adds onto; ``grads`` picks the free
# rows' gradients among the (E, 2) ones and ``rows`` names, for each of their
# 3 entries, the entry of b.  A flat np.add.at is several times faster than
# one over (k, 3, 3) blocks, and adds in the same order.
_Layout = namedtuple("_Layout", "n terms entries grads rows far_at")


def _wrap_rows(theta: np.ndarray) -> np.ndarray:
    """``wrap_angle`` of each element, bit for bit.

    ``np.fmod`` is exact, and one fold by ``_TAU`` into (-pi, pi] is exact by
    Sterbenz's lemma, so each result is the one value of ``theta`` minus a
    multiple of ``_TAU`` in (-pi, pi], which is what ``wrap_angle`` returns;
    at ``math.remainder``'s ties both end on pi.  Elements that are not
    finite go through ``wrap_angle`` itself, so an infinity raises as there.
    """
    with np.errstate(invalid="ignore"):  # fmod of an infinity is NaN
        r = np.fmod(theta, _TAU)
    r = np.where(r > math.pi, r - _TAU, np.where(r <= -math.pi, r + _TAU, r))
    odd = ~np.isfinite(theta)
    if odd.any():
        r[odd] = [wrap_angle(t) for t in theta[odd].tolist()]
    return r


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


def _layout(edges: _EdgeArrays, n: int) -> _Layout:
    """The block each of ``_normal_equations``' terms adds onto, for ``n`` free rows."""
    ri, rj = edges.i - 1, edges.j - 1  # the gauge (row 0) maps to -1
    rows, cols = np.stack([ri, rj, ri, rj], axis=1).ravel(), np.stack([ri, rj, rj, ri], axis=1).ravel()
    terms = np.flatnonzero((rows >= 0) & (cols >= 0))
    rows, cols = rows[terms], cols[terms]
    chain = max(n - 1, 0)
    slots = np.where(rows == cols, rows, np.where(cols == rows + 1, n + rows, n + chain + cols))
    far = np.abs(rows - cols) > 1
    keys, slot = np.unique(rows[far] * n + cols[far], return_inverse=True)
    slots[far] = n + 2 * chain + slot
    at = np.stack([ri, rj], axis=1).ravel()
    grads = np.flatnonzero(at >= 0)
    return _Layout(
        n,
        terms,
        (9 * slots[:, None] + np.arange(9)).ravel(),
        grads,
        (3 * at[grads, None] + np.arange(3)).ravel(),
        np.stack(np.divmod(keys, max(n, 1)), axis=1),
    )


def _normal_equations(X: np.ndarray, edges: _EdgeArrays, layout: _Layout) -> tuple[_Blocks, np.ndarray]:
    """Gauss-Newton H as blocks and b as (n, 3) over the free rows 1.. of ``X``; row 0 is the gauge."""
    e = _residual_rows(X, edges)[:, :, None]
    xi, xj = X[edges.i], X[edges.j]
    ci, si = np.cos(xi[:, 2]), np.sin(xi[:, 2])
    cz, sz = np.cos(edges.rel[:, 2]), np.sin(edges.rel[:, 2])
    RiT = np.stack([ci, si, -si, ci], axis=1).reshape(-1, 2, 2)
    dRiT = np.stack([-si, ci, -ci, -si], axis=1).reshape(-1, 2, 2)
    RzT = np.stack([cz, sz, -sz, cz], axis=1).reshape(-1, 2, 2)
    R = RzT @ RiT
    A = np.zeros((len(e), 3, 3))  # d e / d xi
    A[:, :2, :2] = -R
    A[:, :2, 2] = (RzT @ (dRiT @ (xj[:, :2] - xi[:, :2])[:, :, None]))[:, :, 0]
    A[:, 2, 2] = -1.0
    B = np.zeros((len(e), 3, 3))  # d e / d xj
    B[:, :2, :2] = R
    B[:, 2, 2] = 1.0
    AtO, BtO = A.transpose(0, 2, 1) @ edges.info, B.transpose(0, 2, 1) @ edges.info
    # np.add.at adds in index order, so every entry of a block and of b sums
    # its terms edge by edge, in edge order, from zero.
    n, chain = layout.n, max(layout.n - 1, 0)
    blocks = np.zeros((n + 2 * chain + len(layout.far_at), 3, 3))
    products = np.stack([AtO @ A, BtO @ B, AtO @ B, BtO @ A], axis=1).reshape(-1, 9)
    np.add.at(blocks.reshape(-1), layout.entries, products[layout.terms].ravel())
    b = np.zeros((n, 3))
    np.add.at(b.reshape(-1), layout.rows, np.stack([AtO @ e, BtO @ e], axis=1).reshape(-1, 3)[layout.grads].ravel())
    diag, upper, lower, far = np.split(blocks, [n, n + chain, n + 2 * chain])
    return _Blocks(diag, upper, lower, far, layout.far_at), b


def _chain_solve(D: np.ndarray, lower: np.ndarray, upper: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Solve a block-tridiagonal system by odd-even (cyclic) block reduction.

    ``D`` holds the (m, 3, 3) diagonal blocks, ``lower[k]`` the block at
    (k + 1, k) and ``upper[k]`` the one at (k, k + 1); ``R`` is (m, 3, q).
    Each level solves its even rows' diagonal blocks against their
    off-diagonal blocks and right-hand sides in one batched
    ``np.linalg.solve``, folds that into the odd rows, and back substitution
    reuses it, so the work is O(m) in log2(m) levels.  A level with an even
    row count first gets one identity row, coupled to nothing, which back
    substitution drops.  Solving rather than multiplying by explicit block
    inverses keeps the backward error at the dense LU solve's.  A singular
    block raises ``LinAlgError``.
    """
    m, q = len(D), R.shape[2]
    lo, up = np.zeros((2, m, 3, 3))  # lo[k] is the block at (k, k - 1), up[k] the one at (k, k + 1)
    lo[1:], up[:-1] = lower, upper
    pads = (np.eye(3)[None], *np.zeros((2, 1, 3, 3)), np.zeros((1, 3, q)))  # the identity row of D, lo, up and R
    levels = []
    while len(D):
        rows = len(D)
        if rows % 2 == 0:  # so that the level's first and last rows are even
            D, lo, up, R = (np.concatenate([a, pad]) for a, pad in zip((D, lo, up, R), pads))
        F = np.linalg.solve(D[0::2], np.concatenate([lo[0::2], up[0::2], R[0::2]], axis=2))
        f_lo, f_up, f_r = F[:, :, :3], F[:, :, 3:6], F[:, :, 6:]
        l_odd, u_odd = lo[1::2], up[1::2]
        D = D[1::2] - l_odd @ f_up[:-1] - u_odd @ f_lo[1:]
        lo, up = -l_odd @ f_lo[:-1], -u_odd @ f_up[1:]
        R = R[1::2] - l_odd @ f_r[:-1] - u_odd @ f_r[1:]
        levels.append((rows, f_lo, f_up, f_r))
    Y = R  # empty: the last level's one row was eliminated
    for rows, f_lo, f_up, f_r in reversed(levels):
        side = np.concatenate([np.zeros((1, 3, q)), Y, np.zeros((1, 3, q))])
        full = np.empty((2 * len(Y) + 1, 3, q))
        full[1::2] = Y
        full[0::2] = f_r - f_lo @ side[:-1] - f_up @ side[1:]
        Y = full[:rows]
    return Y


def _solve(H: _Blocks, b: np.ndarray) -> np.ndarray:
    """Solve ``H x = b`` for the normal equations of a keyframe chain, ``H`` given as blocks.

    ``b`` is (n, 3), and ``x`` is returned flat.  Block row k of ``H``
    couples only to k - 1 and k + 1, apart from the ends: the block rows
    ``H.far_at`` names, in order.  The other rows t form a block-tridiagonal
    ``H_tt``; one cyclic reduction solves ``H_tt [y, Z] = [b_t, H_tc]``, a
    dense solve on the Schur complement ``H_cc - H_ct Z`` gives the ends'
    ``x_c``, and ``x_t = y - Z x_c``.  ``H_tc``, ``H_ct`` and ``H_cc`` are the
    only dense arrays; each of their blocks is copied from the block where it
    sits in ``H`` (``H_ct`` is not taken as ``H_tc`` transposed), and ``H`` is
    not written.
    """
    ends = np.unique(H.far_at)
    n, k = len(b), len(ends)
    is_chain = np.ones(n + 1, dtype=bool)  # row n, and row -1 that wraps to it, is no row
    is_chain[ends] = is_chain[n] = False
    chain = np.flatnonzero(is_chain)
    m, at = len(chain), np.empty(n, dtype=np.intp)  # each row's place among the chain rows or the ends
    at[chain], at[ends] = np.arange(m), np.arange(k)
    cc = np.zeros((k, 3, k, 3))
    cc[np.arange(k), :, np.arange(k), :] = H.diag[ends]
    p = np.flatnonzero(np.diff(ends) == 1)  # ends p and p + 1 are neighbouring rows
    cc[p, :, p + 1, :] = H.upper[ends[p]]
    cc[p + 1, :, p, :] = H.lower[ends[p]]
    cc[at[H.far_at[:, 0]], :, at[H.far_at[:, 1]], :] = H.far
    schur = cc.reshape(3 * k, 3 * k)
    if not m:  # every row is an end, so the Schur complement is H itself
        return np.linalg.solve(schur, b.ravel())
    # An end's only chain blocks are the ones to its chain neighbours.
    ct, tc = np.zeros((k, 3, m, 3)), np.zeros((m, 3, k, 3))
    for step, toward, back in ((1, H.upper, H.lower), (-1, H.lower, H.upper)):
        p = np.flatnonzero(is_chain[ends + step])
        s, band = at[ends[p] + step], ends[p] + min(step, 0)  # band: the chain block between the two rows
        ct[p, :, s, :] = toward[band]
        tc[s, :, p, :] = back[band]
    gap = np.diff(chain) > 1  # chain rows with ends between them share no block
    lower, upper = H.lower[chain[:-1]], H.upper[chain[:-1]]
    lower[gap] = upper[gap] = 0.0
    rhs = np.concatenate([b[chain, :, None], tc.reshape(m, 3, 3 * k)], axis=2)
    yz = _chain_solve(H.diag[chain], lower, upper, rhs).reshape(3 * m, 1 + 3 * k)
    w = ct.reshape(3 * k, 3 * m) @ yz
    schur -= w[:, 1:]
    x = np.empty((n, 3))
    x[ends] = np.linalg.solve(schur, b[ends].ravel() - w[:, 0]).reshape(k, 3)
    x[chain] = (yz[:, 0] - yz[:, 1:] @ x[ends].ravel()).reshape(m, 3)
    return x.ravel()


class PoseGraph:
    """Mutable SE(2) keyframe graph; single writer, snapshot readers."""

    def __init__(self, origin: Pose2 = Pose2()):
        self.nodes: dict[int, Pose2] = {0: origin}
        self.edges: list[Edge] = []
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
        """Append node ``max(ids) + 1`` at that node's pose . odom, connected to it by an odometry edge."""
        _check_finite_pose(odom, "odometry")
        info = _check_information(info)
        prev = max(self.nodes)
        node_id = prev + 1
        self.nodes[node_id] = se2_compose(self.nodes[prev], odom)
        self.edges.append(Edge(prev, node_id, odom, info, EdgeKind.ODOMETRY))
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

        At the current poses and over the graph's own edges by default; ``X``
        is an (N, 3) node array in ``_arrays`` row order.  ``optimize``
        evaluates every trial step here, passing the trial node array and the
        edge arrays it built once, so each trial step is one ``chi2`` call (as
        perfbench counts them).
        """
        if X is None or edges is None:
            _, current, own = self._arrays()
            X = current if X is None else X
            edges = own if edges is None else edges
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
        layout = _layout(edges, len(start) - 1)
        d = np.arange(3)  # the diagonal of a 3x3 block
        X = start
        chi = self.chi2(X, edges)
        trace = [chi]
        lam = 1e-3
        for _ in range(max_iters):
            H, b = _normal_equations(X, edges, layout)
            undamped = H.diag[:, d, d]
            damping = np.maximum(undamped, 1e-12)
            trial = None
            while lam <= 1e12:
                H.diag[:, d, d] = undamped + lam * damping  # _solve does not write H, so each trial damps it afresh
                try:
                    delta = _solve(H, -b)
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

    # -- plain-text graph dump (VERTEX_SE2 / EDGE_SE2 lines) -----------------

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
