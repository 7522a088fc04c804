import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dijkstra_cost
from travmap.gridmap import CellState, OutOfBoundsError, empty_like, new_map
from travmap.quality import (
    JourneyQuery,
    PathPlan,
    QualityReport,
    ReportRow,
    evaluate_map,
    journey_error,
    plan_path,
    sample_queries,
)

T = CellState.TRAVERSABLE
U = CellState.UNTRAVERSABLE

_SQRT2 = math.sqrt(2.0)


def all_free(w, h, res=0.1):
    m = new_map(0, 0, w * res, h * res, res)
    m.cells[:, :] = int(T)
    return m


def test_plan_path_diagonal_3x3():
    m = all_free(3, 3)
    plan = plan_path(m, m.cell_to_world(0, 0), m.cell_to_world(2, 2))
    assert plan is not None
    assert plan.cells == [(0, 0), (1, 1), (2, 2)]
    assert plan.cost == 2 * (0.1 * _SQRT2)
    assert len(plan.waypoints) == 3


def test_plan_path_goal_blocked():
    m = all_free(3, 3)
    m.set_cell(2, 2, U)
    assert plan_path(m, m.cell_to_world(0, 0), m.cell_to_world(2, 2)) is None


def test_plan_path_unknown_blocks():
    m = all_free(3, 1)
    m.set_cell(1, 0, CellState.UNKNOWN)
    assert plan_path(m, m.cell_to_world(0, 0), m.cell_to_world(2, 0)) is None


def test_plan_path_out_of_bounds_start():
    m = all_free(3, 3)
    with pytest.raises(OutOfBoundsError):
        plan_path(m, (-1, -1), m.cell_to_world(2, 2))


def test_plan_path_same_cell():
    m = all_free(3, 3)
    plan = plan_path(m, m.cell_to_world(1, 1), m.cell_to_world(1, 1))
    assert plan.cost == 0.0
    assert plan.cells == [(1, 1)]


def test_planner_matches_dijkstra_oracle_on_random_maps():
    solved = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = new_map(0, 0, 1.5, 1.5, 0.1)
        blocked = rng.random((15, 15)) < 0.3
        m.cells[:, :] = np.where(blocked, int(U), int(T))
        trav = np.argwhere(m.cells == int(T))
        ja, ia = trav[0]
        jb, ib = trav[-1]
        start, goal = (int(ia), int(ja)), (int(ib), int(jb))
        oracle = dijkstra_cost(m, start, goal)
        plan = plan_path(m, m.cell_to_world(*start), m.cell_to_world(*goal))
        if oracle is None:
            assert plan is None
        else:
            assert plan is not None
            assert plan.cost == oracle  # exact, same count representation
            solved += 1
    assert solved > 50  # sanity: the ensemble actually exercises the planner


def _nearest_mean(oracle_pts, user_pts):
    """Hand enumeration of the metric definition."""
    total = 0.0
    for ox, oy in oracle_pts:
        best = min(math.hypot(ox - ux, oy - uy) for ux, uy in user_pts)
        total += best
    return total / len(oracle_pts)


def test_journey_error_identical_paths():
    m = all_free(3, 3)
    p = plan_path(m, m.cell_to_world(0, 0), m.cell_to_world(2, 2))
    assert journey_error(p, p) == 0.0


def test_journey_error_hand_enumerated_detour():
    m = all_free(3, 3)
    oracle = PathPlan([m.cell_to_world(0, j) for j in range(3)], 0.2)
    user = PathPlan([m.cell_to_world(*c) for c in [(0, 0), (1, 1), (0, 2)]], 2 * 0.1 * _SQRT2)
    expected = _nearest_mean(oracle.waypoints, user.waypoints)
    got = journey_error(oracle, user)
    assert got == pytest.approx(expected, abs=1e-15)
    assert abs(got - 0.1 / 3) <= 1e-9


def test_journey_error_superset_is_zero():
    m = all_free(5, 5)
    oracle = PathPlan([m.cell_to_world(i, 0) for i in range(3)], 0.2)
    user = PathPlan([m.cell_to_world(i, 0) for i in range(5)], 0.4)
    assert journey_error(oracle, user) == 0.0


@given(data=st.data())
@settings(max_examples=40)
def test_journey_error_reversal_invariant_and_nonnegative(data):
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 8))
    pts = st.tuples(st.floats(-5, 5), st.floats(-5, 5))
    o = PathPlan(data.draw(st.lists(pts, min_size=n, max_size=n)), 0.0)
    u = PathPlan(data.draw(st.lists(pts, min_size=m, max_size=m)), 0.0)
    err = journey_error(o, u)
    assert err >= 0.0
    rev = PathPlan(list(reversed(u.waypoints)), 0.0)
    assert journey_error(o, rev) == pytest.approx(err, abs=1e-12)


def test_evaluate_map_identity_is_zero():
    m = all_free(10, 10)
    queries = [
        JourneyQuery(m.cell_to_world(0, 0), m.cell_to_world(9, 9)),
        JourneyQuery(m.cell_to_world(9, 0), m.cell_to_world(0, 9)),
    ]
    result = evaluate_map(m, m, queries)
    assert result.score == 0.0
    assert result.n_failed == 0


def test_evaluate_map_all_unknown_pays_oracle_cost():
    gt = all_free(10, 10)
    candidate = empty_like(gt)
    q = JourneyQuery(gt.cell_to_world(0, 0), gt.cell_to_world(9, 9))
    oracle = plan_path(gt, q.start, q.goal)
    result = evaluate_map(candidate, gt, [q])
    assert result.n_failed == 1
    assert result.score == oracle.cost


def test_evaluate_map_detour_case():
    gt = all_free(3, 3)
    candidate = gt.copy()
    candidate.set_cell(0, 1, U)
    q = JourneyQuery(gt.cell_to_world(0, 0), gt.cell_to_world(0, 2))
    result = evaluate_map(candidate, gt, [q])
    assert abs(result.score - 0.1 / 3) <= 1e-9


def test_evaluate_map_rejects_unsolvable_oracle_query():
    gt = all_free(3, 3)
    gt.set_cell(1, 0, U)
    gt.set_cell(1, 1, U)
    gt.set_cell(1, 2, U)
    q = JourneyQuery(gt.cell_to_world(0, 0), gt.cell_to_world(2, 0))
    with pytest.raises(ValueError):
        evaluate_map(gt, gt, [q])


def test_sample_queries_deterministic():
    gt = all_free(30, 30)
    a = sample_queries(gt, 5, seed=42)
    b = sample_queries(gt, 5, seed=42)
    assert a == b
    c = sample_queries(gt, 5, seed=43)
    assert a != c


def test_sample_queries_respects_separation_and_solvability():
    gt = all_free(30, 30)
    for q in sample_queries(gt, 10, seed=3, min_separation=2.0):
        assert math.hypot(q.goal[0] - q.start[0], q.goal[1] - q.start[1]) >= 2.0
        assert plan_path(gt, q.start, q.goal) is not None


def test_sample_queries_unique_admissible_pair():
    # 3 m corridor whose only pair far enough apart is its two end cells
    gt = all_free(30, 1)
    (q,) = sample_queries(gt, 1, seed=0, min_separation=2.9)
    assert {q.start, q.goal} == {gt.cell_to_world(0, 0), gt.cell_to_world(29, 0)}


def test_sample_queries_infeasible_errors():
    gt = new_map(0, 0, 1, 1, 0.1)  # all unknown
    with pytest.raises(ValueError):
        sample_queries(gt, 1, seed=0)
    gt.cells[:, :] = int(U)
    with pytest.raises(ValueError):
        sample_queries(gt, 1, seed=0)


def test_report_csv_shape_and_order():
    rows = [
        ReportRow("HO3", "I", 1.0, 20, 3),
        ReportRow("SfM+PfH+HO3", "I", 0.5, 20, 1),
        ReportRow("SfM", "I", 2.0, 20, 5),
    ]
    csv = QualityReport(rows).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "combination,scenario,score_m,n_queries,n_failed"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["SfM+PfH+HO3", "SfM", "HO3"]
