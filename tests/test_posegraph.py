import copy
import dataclasses
import math

import numpy as np
import pytest
from _oracles import (
    posegraph_blocks_from_dense,
    posegraph_chain_ends,
    posegraph_chain_solve_padded,
    posegraph_chi2,
    posegraph_dense_from_blocks,
    posegraph_far_pairs,
    posegraph_linearize,
    posegraph_optimize,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from travmap import pipeline, posegraph
from travmap.posegraph import (
    _TAU,
    EdgeKind,
    Pose2,
    PoseGraph,
    _chain_solve,
    _layout,
    _normal_equations,
    _solve,
    _wrap_rows,
    se2_compose,
    se2_inverse,
    se2_transform,
    wrap_angle,
)
from travmap.scenesim import builtin_config

poses = st.builds(
    Pose2,
    st.floats(-10, 10),
    st.floats(-10, 10),
    st.floats(-math.pi, math.pi),
)


def pose_close(a: Pose2, b: Pose2, tol: float) -> bool:
    return (
        abs(a.x - b.x) <= tol
        and abs(a.y - b.y) <= tol
        and abs(wrap_angle(a.theta - b.theta)) <= tol
    )


# ---------------------------------------------------------------------------
# SE(2) algebra


def test_compose_examples():
    out = se2_compose(Pose2(1, 0, math.pi / 2), Pose2(1, 0, 0))
    assert pose_close(out, Pose2(1, 1, math.pi / 2), 1e-12)
    a = Pose2(0.3, -0.7, 1.1)
    assert pose_close(se2_compose(a, Pose2()), a, 0)
    inv = se2_inverse(Pose2(1, 0, math.pi / 2))
    assert pose_close(se2_compose(inv, Pose2(1, 0, math.pi / 2)), Pose2(), 1e-12)


def test_theta_normalized():
    assert Pose2(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
    assert Pose2(0, 0, -math.pi).theta == pytest.approx(math.pi)
    assert -math.pi < Pose2(0, 0, 123.456).theta <= math.pi


@given(a=poses, b=poses, c=poses)
def test_compose_associative(a, b, c):
    left = se2_compose(se2_compose(a, b), c)
    right = se2_compose(a, se2_compose(b, c))
    assert pose_close(left, right, 1e-12)


@given(a=poses)
def test_inverse_law(a):
    assert pose_close(se2_compose(se2_inverse(a), a), Pose2(), 1e-12)
    assert pose_close(se2_compose(a, se2_inverse(a)), Pose2(), 1e-12)


@given(a=poses, p=st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
def test_transform_roundtrip(a, p):
    w = se2_transform(a, p)
    back = se2_transform(se2_inverse(a), w)
    assert abs(back[0] - p[0]) < 1e-10 and abs(back[1] - p[1]) < 1e-10


# ---------------------------------------------------------------------------
# graph bookkeeping


def test_add_keyframe_examples():
    g = PoseGraph()
    n1 = g.add_keyframe(Pose2(1, 0, 0))
    assert n1 == 1 and pose_close(g.pose(1), Pose2(1, 0, 0), 0)
    n2 = g.add_keyframe(Pose2(1, 0, math.pi / 2))
    assert n2 == 2 and pose_close(g.pose(2), Pose2(2, 0, math.pi / 2), 1e-12)


def test_add_keyframe_rejects_bad_information():
    g = PoseGraph()
    with pytest.raises(ValueError):
        g.add_keyframe(Pose2(1, 0, 0), info=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        g.add_keyframe(Pose2(1, 0, 0), info=np.array([[1, 2, 0], [0, 1, 0], [0, 0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):  # within allclose's default rtol, far beyond atol
        g.add_keyframe(Pose2(1, 0, 0), info=np.array([[1, 0.5, 0], [0.500004, 1, 0], [0, 0, 1.0]]))
    assert len(g.nodes) == 1 and not g.edges


def test_loop_closure_bookkeeping():
    g = PoseGraph()
    g.add_keyframe(Pose2(1, 0, 0))
    g.add_keyframe(Pose2(1, 0, 0))
    before = g.snapshot()
    g.add_loop_closure(0, 2, Pose2(2, 0, 0))
    assert len(g.edges) == 3
    assert g.snapshot() == before  # deferred: no pose change until optimize
    with pytest.raises(ValueError):
        g.add_loop_closure(1, 1, Pose2())
    with pytest.raises(KeyError):
        g.add_loop_closure(0, 99, Pose2())


def test_chi2_of_a_node_array_uses_the_graphs_own_edges():
    g = PoseGraph()
    g.add_keyframe(Pose2(1, 0, 0.1))
    g.add_keyframe(Pose2(1, 0, 0.1), info=np.diag([4.0, 2.0, 9.0]))
    g.add_loop_closure(0, 2, Pose2(2.1, 0.3, 0.15))
    X = np.array([[0, 0, 0], [1.1, 0.1, 0.05], [1.9, 0.4, 0.3]])
    moved = copy.deepcopy(g)
    moved.nodes.update({n: Pose2(*X[n]) for n in (1, 2)})
    assert g.chi2(X) == moved.chi2() > 0
    assert g.chi2(X) == g.chi2(X, g._arrays()[2])
    assert g.chi2(g._arrays()[1]) == g.chi2()


def test_optimize_disconnected_rejected():
    g = PoseGraph()
    g.add_keyframe(Pose2(1, 0, 0))
    g.nodes[7] = Pose2(5, 5, 0)  # orphan
    with pytest.raises(ValueError):
        g.optimize()


def test_consistent_chain_is_fixed_point():
    g = PoseGraph()
    for _ in range(5):
        g.add_keyframe(Pose2(1, 0, 0.1))
    before = g.snapshot()
    event = g.optimize()
    assert g.chi2() < 1e-24  # zero up to float roundoff in pose composition
    assert g.snapshot() == before
    assert event.updated == ()


def test_max_iters_zero_is_noop():
    g = PoseGraph()
    g.add_keyframe(Pose2(1, 0, 0))
    g.add_loop_closure(0, 1, Pose2(1.5, 0, 0))
    before = g.snapshot()
    event = g.optimize(max_iters=0)
    assert g.snapshot() == before
    assert event.updated == ()
    assert event.iterations == 0


def test_optimize_gauge_only_graph_is_noop():
    g = PoseGraph(Pose2(1, 2, 0.3))
    event = g.optimize()
    assert g.snapshot() == {0: Pose2(1, 2, 0.3)}
    assert (event.updated, event.chi2_trace, event.iterations) == ((), (0.0,), 0)


def test_event_ids_increase():
    g = PoseGraph()
    g.add_keyframe(Pose2(1, 0, 0))
    e1 = g.optimize()
    e2 = g.optimize()
    assert e2.event_id > e1.event_id


# ---------------------------------------------------------------------------
# optimization against independent oracles

SQUARE_TRUE = [
    Pose2(0, 0, 0),
    Pose2(1, 0, math.pi / 2),
    Pose2(1, 1, math.pi),
    Pose2(0, 1, -math.pi / 2),
]
SQUARE_ODOM = Pose2(1, 0, math.pi / 2)


def _square_graph() -> PoseGraph:
    """Noiseless square with node 1 deliberately mis-initialized by (0.1, 0, 0)."""
    g = PoseGraph()
    for _ in range(3):
        g.add_keyframe(SQUARE_ODOM)
    closing = se2_compose(se2_inverse(SQUARE_TRUE[3]), SQUARE_TRUE[0])
    g.add_loop_closure(3, 0, closing)
    p = g.nodes[1]
    g.nodes[1] = Pose2(p.x + 0.1, p.y, p.theta)
    return g


def _chi2_independent(g: PoseGraph, flat: np.ndarray) -> float:
    """Chi-square written from scratch (plain trig, no shared helpers)."""
    poses = {0: g.nodes[0].as_tuple()}
    free = sorted(n for n in g.nodes if n != 0)
    for k, node in enumerate(free):
        poses[node] = (flat[3 * k], flat[3 * k + 1], flat[3 * k + 2])
    total = 0.0
    for e in g.edges:
        xi, yi, ti = poses[e.i]
        xj, yj, tj = poses[e.j]
        ci, si = math.cos(ti), math.sin(ti)
        dx, dy = xj - xi, yj - yi
        lx = ci * dx + si * dy
        ly = -si * dx + ci * dy
        cz, sz = math.cos(e.rel.theta), math.sin(e.rel.theta)
        ex = cz * (lx - e.rel.x) + sz * (ly - e.rel.y)
        ey = -sz * (lx - e.rel.x) + cz * (ly - e.rel.y)
        et = tj - ti - e.rel.theta
        et = math.atan2(math.sin(et), math.cos(et))
        r = np.array([ex, ey, et])
        total += float(r @ e.info @ r)
    return total


def _gradient_descent(fun, x0, max_iters=20000, tol=1e-16):
    """Dense numeric gradient descent with an adaptive step, run to convergence."""
    x = np.asarray(x0, dtype=float)
    step = 0.1
    fx = fun(x)
    h = 1e-7
    for _ in range(max_iters):
        grad = np.zeros_like(x)
        for k in range(len(x)):
            xp = x.copy()
            xm = x.copy()
            xp[k] += h
            xm[k] -= h
            grad[k] = (fun(xp) - fun(xm)) / (2 * h)
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-12:
            break
        improved = False
        while step > 1e-14:
            cand = x - step * grad
            fc = fun(cand)
            if fc < fx:
                x, fx = cand, fc
                step *= 1.3
                improved = True
                break
            step *= 0.5
        if not improved or fx < tol:
            break
    return x, fx


def test_square_recovery_matches_gradient_descent_oracle():
    g = _square_graph()
    free = sorted(n for n in g.nodes if n != 0)
    x0 = np.array([v for n in free for v in g.nodes[n].as_tuple()])
    oracle_x, oracle_chi2 = _gradient_descent(lambda x: _chi2_independent(g, x), x0)
    assert oracle_chi2 < 1e-12

    event = g.optimize(max_iters=50, tol=1e-15)
    assert g.chi2() < 1e-12
    for k, node in enumerate(free):
        lm = g.nodes[node]
        assert abs(lm.x - oracle_x[3 * k]) < 1e-6
        assert abs(lm.y - oracle_x[3 * k + 1]) < 1e-6
        assert abs(wrap_angle(lm.theta - oracle_x[3 * k + 2])) < 1e-6
    # and the oracle itself lands on the exact square
    for node, truth in zip(free, SQUARE_TRUE[1:]):
        assert pose_close(g.nodes[node], truth, 1e-6)
    assert all(b <= a + 1e-15 for a, b in zip(event.chi2_trace, event.chi2_trace[1:]))


def _grid_refinement(fun, x0, passes=120):
    """Nested-grid brute force: try every +-step combination, shrink on stall."""
    x = np.asarray(x0, dtype=float)
    fx = fun(x)
    step = 0.08
    offsets = np.array(np.meshgrid(*[[-1, 0, 1]] * len(x0))).T.reshape(-1, len(x0))
    for _ in range(passes):
        best = None
        for off in offsets:
            if not off.any():
                continue
            cand = x + step * off
            fc = fun(cand)
            if fc < fx and (best is None or fc < best[1]):
                best = (cand, fc)
        if best is None:
            step *= 0.5
            if step < 1e-10:
                break
        else:
            x, fx = best
    return x, fx


def test_small_graph_chi2_matches_grid_refinement_oracle():
    g = PoseGraph()
    g.add_keyframe(Pose2(1, 0, 0))
    g.add_keyframe(Pose2(1, 0, math.pi / 2))
    # inconsistent closure so the optimum is a genuine compromise
    g.add_loop_closure(0, 2, Pose2(2.05, 0.04, math.pi / 2 - 0.03))
    free = sorted(n for n in g.nodes if n != 0)
    x0 = np.array([v for n in free for v in g.nodes[n].as_tuple()])
    _, oracle_chi2 = _grid_refinement(lambda x: _chi2_independent(g, x), x0)

    g.optimize(max_iters=100, tol=1e-15)
    assert abs(g.chi2() - oracle_chi2) < 1e-8


def test_gauge_invariance():
    offset = Pose2(2.0, -1.0, 0.7)
    plain = _square_graph()
    moved = PoseGraph(se2_compose(offset, plain.nodes[0]))
    for e in plain.edges:
        if e.kind is EdgeKind.ODOMETRY:
            moved.add_keyframe(e.rel, e.info)
        else:
            moved.add_loop_closure(e.i, e.j, e.rel, e.info)
    p = moved.nodes[1]
    moved.nodes[1] = Pose2(p.x + 0.1, p.y, p.theta)
    plain.optimize(max_iters=50)
    moved.optimize(max_iters=50)
    for node in plain.nodes:
        expected = se2_compose(offset, plain.nodes[node])
        assert pose_close(moved.nodes[node], expected, 1e-9)


# ---------------------------------------------------------------------------
# text dump


def test_add_keyframe_after_loads_follows_the_largest_id():
    g = PoseGraph()
    g.nodes[5] = Pose2(1.0, 0.0, 0.0)
    g.nodes[2] = Pose2(0.5, 0.0, 0.0)
    assert g.add_keyframe(Pose2(1, 0, 0)) == 6
    assert pose_close(g.pose(6), Pose2(2, 0, 0), 0)
    assert (g.edges[-1].i, g.edges[-1].j, g.edges[-1].kind) == (5, 6, EdgeKind.ODOMETRY)


def test_dump_load_roundtrip_numpy_scalars():
    # Noisy odometry arrives as np.float64; dumps must still write plain numbers.
    g = PoseGraph()
    g.add_keyframe(Pose2(np.float64(0.0205), np.float64(-0.1128), np.float64(0.0031)))
    g.add_keyframe(Pose2(np.float64(1.5), np.float64(0.25), np.float64(-0.5)))
    g.add_loop_closure(0, 2, Pose2(np.float64(1.52), np.float64(0.137), np.float64(-0.497)))
    text = g.dumps()
    assert "np.float64" not in text
    assert text.splitlines()[1] == f"VERTEX_SE2 1 0.0205 -0.1128 {g.nodes[1].theta!r}"
    assert text.splitlines()[-1] == "EDGE_SE2 0 2 1.52 0.137 -0.497 1.0 0.0 0.0 1.0 0.0 1.0"


@pytest.mark.parametrize("bad", [Pose2(math.nan, 0, 0), Pose2(0, math.inf, 0), Pose2(0, 0, math.nan)])
def test_non_finite_relative_poses_rejected(bad):
    g = PoseGraph()
    g.add_keyframe(Pose2(1, 0, 0))
    with pytest.raises(ValueError, match="odometry must be finite"):
        g.add_keyframe(bad)
    with pytest.raises(ValueError, match="loop closure must be finite"):
        g.add_loop_closure(0, 1, bad)
    assert len(g.nodes) == 2 and len(g.edges) == 1


def test_infinite_heading_rejected_naming_theta():
    for theta in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite, got -?inf"):
            Pose2(0, 0, theta)
    assert math.isnan(Pose2(0, 0, math.nan).theta)  # left to the graph's finite checks


def test_wrap_rows_matches_wrap_angle_bit_for_bit():
    """The array wrap the optimizer uses, on the values where a remainder is easiest to get wrong."""
    odd_pi = [k * math.pi for k in range(-41, 42, 2)]
    whole_turns = [k * _TAU for k in range(-40, 41)]
    edges = [math.pi, -math.pi, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, math.nan]
    beside = [math.nextafter(v, d) for v in (math.pi, -math.pi, _TAU, -_TAU) for d in (-math.inf, math.inf)]
    theta = np.array(odd_pi + whole_turns + edges + beside)
    expected = np.array([wrap_angle(t) for t in theta.tolist()])
    assert _wrap_rows(theta).tobytes() == expected.tobytes()
    assert _wrap_rows(theta[::-1]).tobytes() == expected[::-1].tobytes()  # a strided view, as optimize passes
    for bad in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="math domain error"):
            _wrap_rows(np.array([0.5, bad]))


# ---------------------------------------------------------------------------
# the edge-array optimizer against the scalar one it replaced, bit for bit


def _bits(graph: PoseGraph) -> str:
    """Node ids with their poses' exact floats and types."""
    return repr([(n, graph.nodes[n]) for n in sorted(graph.nodes)])


def _assert_optimize_matches_oracle(graph: PoseGraph, **kwargs) -> None:
    assert graph.chi2() == posegraph_chi2(graph)
    oracle_graph = copy.deepcopy(graph)
    expected = posegraph_optimize(oracle_graph, **kwargs)
    event = graph.optimize(**kwargs)
    assert _bits(graph) == _bits(oracle_graph)
    assert event.chi2_trace == expected.chi2_trace
    assert repr(event) == repr(expected)  # same updated ids, iterations and event id
    assert graph.chi2() == posegraph_chi2(oracle_graph)


def _information(rng: np.random.Generator) -> np.ndarray:
    L = np.tril(rng.normal(size=(3, 3))) + 2.0 * np.eye(3)
    m = L @ L.T
    return (m + m.T) / 2.0


@st.composite
def chain_graphs(draw):
    """Noisy odometry chains with 0-3 closures (any direction, node 0 included) and one perturbed node."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    g = PoseGraph()
    for _ in range(n - 1):
        step = (rng.uniform(0.2, 1.0), rng.normal(0.0, 0.05), rng.uniform(-1.0, 1.0))
        if draw(st.booleans()):
            step = tuple(np.float64(v) for v in step)  # as noisy scenes hand it over
        else:
            step = tuple(float(v) for v in step)
        g.add_keyframe(Pose2(*step), _information(rng) if draw(st.booleans()) else None)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
        rel = se2_compose(se2_inverse(g.nodes[i]), g.nodes[j])
        noisy = Pose2(rel.x + rng.normal(0.0, 0.1), rel.y + rng.normal(0.0, 0.1), rel.theta + rng.normal(0.0, 0.05))
        g.add_loop_closure(i, j, noisy, _information(rng))
    k = draw(st.integers(1, n - 1))
    p = g.nodes[k]
    g.nodes[k] = Pose2(p.x + rng.normal(0.0, 0.2), p.y + rng.normal(0.0, 0.2), p.theta + rng.normal(0.0, 0.2))
    return g


@settings(max_examples=150, deadline=None)
@given(graph=chain_graphs(), limits=st.sampled_from([{}, {"max_iters": 0}, {"max_iters": 1}, {"tol": 1e-15}]))
def test_optimize_matches_scalar_oracle_bit_for_bit(graph, limits):
    _assert_optimize_matches_oracle(graph, **limits)


@pytest.fixture(scope="module")
def drifted_t(run_shared):
    """The open-loop run of T at seed 3 with odometry noise, and the keyframe pairs ``truth_closures`` accepts."""
    scene = dataclasses.replace(builtin_config("T"), rng_seed=3, odom_sigma_trans=0.005, odom_sigma_rot=0.0025)
    result = run_shared(scene, pipeline.PipelineParams(enable_closures=False))
    return result, pipeline.truth_closures(result.truth, result.params)


def test_optimize_matches_scalar_oracle_on_every_reanchor_closure(drifted_t):
    """All keyframe pairs ``truth_closures`` accepts on drifted T at seed 3, as perfbench's reanchor closes them."""
    result, closures = drifted_t
    assert len(closures) == 24
    for older, newer, rel in closures:
        graph = copy.deepcopy(result.graph)
        graph.add_loop_closure(older, newer, rel)
        _assert_optimize_matches_oracle(graph)


# ---------------------------------------------------------------------------
# the block assembly against the dense one, bit for bit


def _blocks(graph: PoseGraph):
    """``optimize``'s first normal equations: the blocks of ``H`` and the (n, 3) ``b``."""
    _, X, edges = graph._arrays()
    return _normal_equations(X, edges, _layout(edges, len(X) - 1))


def _assert_blocks_match_dense(graph: PoseGraph) -> None:
    free = sorted(n for n in graph.nodes if n != 0)
    H, b = posegraph_linearize(graph, {node_id: 3 * k for k, node_id in enumerate(free)})
    expected = posegraph_blocks_from_dense(H, posegraph_far_pairs(graph))
    blocks, got_b = _blocks(graph)
    assert blocks.far_at.tolist() == expected.far_at.tolist()
    for name in ("diag", "upper", "lower", "far"):
        assert getattr(blocks, name).tobytes() == getattr(expected, name).tobytes(), name
    assert got_b.tobytes() == b.reshape(-1, 3).tobytes()
    assert posegraph_dense_from_blocks(blocks).tobytes() == H.tobytes()  # H is zero outside the blocks


@settings(max_examples=150, deadline=None)
@given(graph=chain_graphs())
def test_blocks_match_dense_assembly_bit_for_bit(graph):
    _assert_blocks_match_dense(graph)


def _chain(n: int) -> PoseGraph:
    rng = np.random.default_rng(n)
    g = PoseGraph()
    for _ in range(n - 1):
        g.add_keyframe(Pose2(rng.uniform(0.2, 1.0), rng.normal(0.0, 0.05), rng.uniform(-1.0, 1.0)))
    p = g.nodes[1]
    g.nodes[1] = Pose2(p.x + 0.1, p.y - 0.2, p.theta + 0.1)
    return g


def _close(g: PoseGraph, i: int, j: int, noise: float = 1.0, info=None) -> None:
    rel = se2_compose(se2_inverse(g.nodes[i]), g.nodes[j])
    g.add_loop_closure(i, j, Pose2(rel.x + 0.05 * noise, rel.y - 0.03 * noise, rel.theta + 0.02 * noise), info)


def test_blocks_match_dense_assembly_on_hand_built_graphs():
    to_gauge = _chain(10)
    _close(to_gauge, 7, 0)
    in_band = _chain(10)
    _close(in_band, 4, 5)  # |i - j| = 1: adds onto the chain blocks
    backward = _chain(10)
    _close(backward, 8, 2)
    same_pair = _chain(10)  # three terms per entry of the far blocks, so the order of the sum shows
    rng = np.random.default_rng(5)
    for i, j, noise in ((2, 7, 1.0), (7, 2, -3.0), (2, 7, 7.5)):
        _close(same_pair, i, j, noise, _information(rng))
    adjacent_ends = _chain(12)
    _close(adjacent_ends, 2, 8)
    _close(adjacent_ends, 3, 9)
    assert posegraph_far_pairs(same_pair).tolist() == [[1, 6], [6, 1]]
    assert posegraph_chain_ends(adjacent_ends).tolist() == [1, 2, 7, 8]
    for graph in (to_gauge, in_band, backward, same_pair, adjacent_ends):
        _assert_blocks_match_dense(graph)


# ---------------------------------------------------------------------------
# the chain solve against the dense one


def _damped_system(graph: PoseGraph, lam: float):
    """``optimize``'s first normal equations, damped as it damps them: the blocks of ``H`` and ``b``."""
    blocks, b = _blocks(graph)
    undamped = blocks.diag[:, range(3), range(3)]
    blocks.diag[:, range(3), range(3)] = undamped + lam * np.maximum(undamped, 1e-12)
    return blocks, -b


def _assert_solve_matches_dense(graph: PoseGraph, lam: float = 1e-3) -> None:
    blocks, b = _damped_system(graph, lam)
    assert np.unique(blocks.far_at).tolist() == posegraph_chain_ends(graph).tolist()
    before = [a.tobytes() for a in blocks]
    x = _solve(blocks, b)
    assert [a.tobytes() for a in blocks] == before
    H, b = posegraph_dense_from_blocks(blocks), b.ravel()
    assert np.linalg.norm(H @ x - b) <= 1e-13 * np.linalg.norm(H, 2) * np.linalg.norm(x)
    # Both solves are off the exact solution by about cond(H) * eps, and at
    # lam = 1e-15 a weakly tied chain reaches cond(H) ~ 1e9, so the bound
    # widens with the condition number there.
    dense = np.linalg.solve(H, b)
    assert np.linalg.norm(x - dense) <= max(1e-9, 1e-13 * np.linalg.cond(H)) * np.linalg.norm(dense)


@settings(max_examples=150, deadline=None)
@given(graph=chain_graphs(), lam=st.sampled_from([1e-15, 1e-3, 1.0, 1e3]))
def test_solve_matches_dense_solve(graph, lam):
    _assert_solve_matches_dense(graph, lam)


def _dense_solve(blocks, b):
    """``np.linalg.solve`` on the dense ``H`` of the blocks, in ``_solve``'s place."""
    return np.linalg.solve(posegraph_dense_from_blocks(blocks), b.ravel())


def test_solve_edge_cases():
    gauge_only = PoseGraph(Pose2(1, 2, 0.3))
    empty = _solve(*_damped_system(gauge_only, 1e-3))  # the 0 x 0 system
    assert empty.shape == (0,)

    to_gauge = _chain(8)
    _close(to_gauge, 6, 0)  # a diagonal block only: no end
    adjacent = _chain(8)
    _close(adjacent, 4, 3)  # inside the tridiagonal band: no end
    far = _chain(8)
    _close(far, 2, 6)
    assert posegraph_chain_ends(to_gauge).tolist() == posegraph_chain_ends(adjacent).tolist() == []
    assert posegraph_chain_ends(far).tolist() == [1, 5]
    for graph in (to_gauge, adjacent, far):
        _assert_solve_matches_dense(graph)

    everywhere = _chain(181)  # as many keyframes as T's graph, each a closure end: no chain rows
    for j in range(21, 181):
        _close(everywhere, j - 20, j)
    assert posegraph_chain_ends(everywhere).tolist() == list(range(180))
    _assert_solve_matches_dense(everywhere)
    blocks, b = _damped_system(everywhere, 1e-3)
    assert _solve(blocks, b).tobytes() == _dense_solve(blocks, b).tobytes()


def test_solve_reads_each_block_where_it_sits():
    """``H``'s two triangles come from separate products, so the solve may not mirror one into the other."""
    graph = _chain(30)
    _close(graph, 3, 17)
    _close(graph, 25, 9)
    blocks, b = _damped_system(graph, 1.0)
    H = posegraph_dense_from_blocks(blocks)
    H = np.triu(H) + 1.25 * np.tril(H, -1)
    dense = np.linalg.solve(H, b.ravel())
    skewed = posegraph_blocks_from_dense(H, blocks.far_at)
    assert np.linalg.norm(_solve(skewed, b) - dense) <= 1e-9 * np.linalg.norm(dense)


def test_solve_raises_on_a_singular_block():
    H = np.eye(12)
    H[3:6, 3:6] = 0.0  # a chain block
    with pytest.raises(np.linalg.LinAlgError):
        _solve(posegraph_blocks_from_dense(H, np.zeros((0, 2), dtype=np.intp)), np.ones((4, 3)))
    with pytest.raises(np.linalg.LinAlgError):  # a closure end's block: the Schur complement is singular
        _solve(posegraph_blocks_from_dense(H, [(1, 3), (3, 1)]), np.ones((4, 3)))


def test_optimize_ends_are_the_oracles(monkeypatch):
    seen = []

    def recording_solve(H, b):
        seen.append((np.unique(H.far_at).tolist(), H.far_at.tolist()))
        return _dense_solve(H, b)

    monkeypatch.setattr(posegraph, "_solve", recording_solve)
    for graph in (_chain(5), _chain(12)):
        _close(graph, 3, 1)
        _close(graph, 4, 0)
        _close(graph, 2, 3)
        seen.clear()
        graph.optimize(max_iters=1)
        assert posegraph_far_pairs(graph).tolist() == [[0, 2], [2, 0]]
        assert seen and all(ends == posegraph_chain_ends(graph).tolist() == [0, 2] for ends, _ in seen)
        assert all(far_at == posegraph_far_pairs(graph).tolist() for _, far_at in seen)


def _random_chain(m: int, q: int, rng: np.random.Generator):
    """A block-tridiagonal system of ``m`` rows with ``q`` right-hand sides, diagonally dominant."""
    D = rng.normal(size=(m, 3, 3)) + 8.0 * np.eye(3)
    lower, upper = rng.normal(size=(2, max(m - 1, 0), 3, 3))
    return D, lower, upper, rng.normal(size=(m, 3, q))


@pytest.mark.parametrize("q", [1, 4, 7])
def test_chain_solve_keeps_the_up_front_padded_bits(q):
    """Padding a level only where its row count is even changes no bit of the solution."""
    rng = np.random.default_rng(q)
    for m in [*range(65), *range(177, 181), *range(255, 258)]:
        system = _random_chain(m, q, rng)
        before = [a.tobytes() for a in system]
        x = _chain_solve(*system)
        assert [a.tobytes() for a in system] == before
        assert x.shape == (m, 3, q) and x.tobytes() == posegraph_chain_solve_padded(*system).tobytes(), m


def test_chain_solve_keeps_its_bits_on_every_reanchor_closure(drifted_t, monkeypatch):
    """Each chain solve of optimize on drifted T's closures, against the up-front padded reduction."""
    result, closures = drifted_t
    calls = []

    def checked(*system):
        x = _chain_solve(*system)
        calls.append(x.tobytes() == posegraph_chain_solve_padded(*system).tobytes())
        return x

    monkeypatch.setattr(posegraph, "_chain_solve", checked)
    for older, newer, rel in closures:
        graph = copy.deepcopy(result.graph)
        graph.add_loop_closure(older, newer, rel)
        graph.optimize()
    assert len(calls) > len(closures) and all(calls)


def _many_closures(result, js) -> PoseGraph:
    """``result``'s open-loop graph closed at each keyframe j of ``js`` to keyframe j - 20 by their true poses."""
    poses = result.truth.camera_poses[:: result.params.keyframe_stride]
    graph = copy.deepcopy(result.graph)
    for j in js:
        graph.add_loop_closure(j - 20, j, se2_compose(se2_inverse(Pose2(*poses[j - 20])), Pose2(*poses[j])))
    return graph


@pytest.mark.parametrize("regime", ["every second keyframe", "all but the last ten", "every keyframe"])
def test_optimize_with_many_closures_matches_the_dense_solve(drifted_t, monkeypatch, regime):
    """Where most keyframes end a closure, the chain solve still gives the dense solve's run."""
    result, _ = drifted_t
    n = len(result.graph.nodes)
    js = {
        "every second keyframe": range(20, n, 2),
        "all but the last ten": range(20, n - 10),
        "every keyframe": range(20, n),
    }[regime]
    runs = []
    for solve in (_solve, _dense_solve):
        monkeypatch.setattr(posegraph, "_solve", solve)
        graph = _many_closures(result, js)
        event = graph.optimize()
        runs.append((event, np.array([graph.nodes[k].as_tuple() for k in sorted(graph.nodes)])))
    (chain, chain_poses), (dense, dense_poses) = runs
    assert chain.iterations > 0 and chain.updated
    assert (chain.iterations, chain.updated) == (dense.iterations, dense.updated)
    assert np.abs(chain_poses - dense_poses).max() <= 1e-12


def test_chain_solve_moves_no_reanchor_output(drifted_t, monkeypatch):
    """On every closure of drifted T at seed 3, the chain solve and the dense one give the same run and maps."""
    result, closures = drifted_t
    rebuild = dataclasses.replace(result.params.rebuild, robot_radius=result.config.robot_radius)
    for older, newer, rel in closures:
        runs = []
        for solve in (_solve, _dense_solve):
            monkeypatch.setattr(posegraph, "_solve", solve)
            graph = copy.deepcopy(result.graph)
            graph.add_loop_closure(older, newer, rel)
            event = graph.optimize()
            closed = dataclasses.replace(result, graph=graph)
            maps = [pipeline.build_combo_map(closed, layers, params=rebuild).cells for layers in pipeline.COMBINATIONS]
            runs.append((event, np.array([graph.nodes[n].as_tuple() for n in sorted(graph.nodes)]), maps))
        (chain, chain_poses, chain_maps), (dense, dense_poses, dense_maps) = runs
        assert (chain.iterations, chain.updated) == (dense.iterations, dense.updated)
        assert np.abs(chain_poses - dense_poses).max() <= 1e-12
        assert all(np.array_equal(a, b) for a, b in zip(chain_maps, dense_maps))
