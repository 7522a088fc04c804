import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dijkstra_cost, plan_path_on_cell_tuples
from travmap.gridmap import CellState, OutOfBoundsError, empty_like, new_map
from travmap import pipeline
from travmap.scenesim import builtin_config
from travmap.quality import (
    COMBINATION_ORDER,
    COMBINATIONS,
    JourneyQuery,
    PathPlan,
    QualityReport,
    ReportRow,
    component_labels,
    evaluate_map,
    journey_error,
    oracle_plans,
    plan_path,
    sample_queries,
)

T = CellState.TRAVERSABLE
U = CellState.UNTRAVERSABLE


def test_combinations_are_the_report_order():
    """Derived from the layers, the combinations and their labels are the report's fixed order."""
    assert COMBINATION_ORDER == ("SfM+PfH+HO3", "SfM+PfH", "SfM+HO3", "PfH+HO3", "SfM", "PfH", "HO3")
    assert COMBINATIONS == (
        ("sfm", "pfh", "ho3"),
        ("sfm", "pfh"),
        ("sfm", "ho3"),
        ("pfh", "ho3"),
        ("sfm",),
        ("pfh",),
        ("ho3",),
    )
    assert (pipeline.COMBINATIONS, pipeline.COMBINATION_ORDER) == (COMBINATIONS, COMBINATION_ORDER)

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


def _assert_plans_as_cell_tuple_planner(m, start, goal):
    """``plan_path`` returns exactly the reference planner's waypoints, cells and cost, or None with it."""
    plan = plan_path(m, start, goal)
    ref = plan_path_on_cell_tuples(m, start, goal)
    if ref is None:
        assert plan is None, (start, goal)
    else:
        assert plan is not None, (start, goal)
        assert (plan.waypoints, plan.cells, plan.cost) == (ref.waypoints, ref.cells, ref.cost), (start, goal)
    return ref


def _grid_map(rows):
    """A 0.1 m map from rows of text, the first row at the top (largest j): ``.`` TRAVERSABLE, ``#`` UNTRAVERSABLE, ``?`` UNKNOWN."""
    code = {".": int(T), "#": int(U), "?": int(CellState.UNKNOWN)}
    m = new_map(0, 0, len(rows[0]) * 0.1, len(rows) * 0.1, 0.1)
    m.cells[:, :] = np.array([[code[c] for c in row] for row in reversed(rows)])
    return m


@pytest.mark.parametrize(
    "rows, start, goal, solvable",
    [
        (["."], (0, 0), (0, 0), True),  # 1x1, start is goal
        (["....."], (0, 0), (4, 0), True),  # one row
        (["." for _ in range(5)], (0, 4), (0, 0), True),  # one column
        (["..?.."], (0, 0), (4, 0), False),  # UNKNOWN cuts the row
        (["." * 7] * 7, (0, 0), (6, 3), True),  # open grid: many equal-cost paths
        (["." * 7] * 7, (3, 3), (3, 3), True),
        ([".#.", "##.", "..."], (0, 2), (2, 0), False),  # start walled off
        ([".?.", "#.#", "..."], (0, 2), (2, 2), True),  # diagonal squeeze through the middle
    ],
    ids=["1x1", "row", "column", "unknown-cut", "open", "open-same-cell", "walled", "diagonal"],
)
def test_plan_path_matches_cell_tuple_planner_on_pinned_maps(rows, start, goal, solvable):
    m = _grid_map(rows)
    ref = _assert_plans_as_cell_tuple_planner(m, m.cell_to_world(*start), m.cell_to_world(*goal))
    assert (ref is not None) == solvable


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_plan_path_matches_cell_tuple_planner_on_random_maps(data):
    w = data.draw(st.integers(1, 9), label="w")
    h = data.draw(st.integers(1, 9), label="h")
    if data.draw(st.booleans(), label="open"):
        cells = np.full((h, w), int(T))
    else:
        states = st.sampled_from([int(T), int(T), int(T), int(U), int(CellState.UNKNOWN)])
        cells = np.array(data.draw(st.lists(states, min_size=w * h, max_size=w * h), label="cells")).reshape(h, w)
    m = new_map(0, 0, w * 0.1, h * 0.1, 0.1)
    m.cells[:, :] = cells
    cell = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    start = data.draw(cell, label="start")
    goal = data.draw(st.one_of(st.just(start), cell), label="goal")
    _assert_plans_as_cell_tuple_planner(m, m.cell_to_world(*start), m.cell_to_world(*goal))


@pytest.mark.parametrize("kind", ["I", "L", "T"])
def test_plan_path_matches_cell_tuple_planner_on_scene_maps(run_shared, kind):
    res = run_shared(builtin_config(kind))
    gt = pipeline.ground_truth_map(res.config)
    maps = [gt] + [pipeline.build_combo_map(res, layers) for layers in COMBINATIONS]
    solved = 0
    for seed in range(10):
        for q in sample_queries(gt, 20, seed):
            for m in maps:
                solved += _assert_plans_as_cell_tuple_planner(m, q.start, q.goal) is not None
    assert solved >= 10 * 20  # every oracle query, at least


@pytest.mark.parametrize("point", [(math.nan, 0.15), (0.15, math.inf)])
def test_plan_path_rejects_non_finite_points(point):
    m = all_free(3, 3)
    with pytest.raises(OutOfBoundsError):
        plan_path(m, point, m.cell_to_world(2, 2))
    with pytest.raises(OutOfBoundsError):
        plan_path(m, m.cell_to_world(0, 0), point)


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


def test_evaluate_map_shared_oracles_match_own_plans():
    rng = np.random.default_rng(5)
    gt = all_free(20, 20)
    gt.cells[rng.random(gt.cells.shape) < 0.2] = int(U)
    candidate = gt.copy()
    candidate.cells[rng.random(gt.cells.shape) < 0.15] = int(CellState.UNKNOWN)
    queries = sample_queries(gt, 8, seed=1, min_separation=1.0)
    oracles = oracle_plans(gt, queries)
    for m in (candidate, gt):
        assert evaluate_map(m, gt, queries, oracles) == evaluate_map(m, gt, queries)
    assert evaluate_map(candidate, gt, queries).n_failed > 0  # the penalty branch is covered too


def test_oracle_plans_reject_unsolvable_query_and_short_lists():
    gt = all_free(3, 3)
    gt.cells[:, 1] = int(U)
    solvable = JourneyQuery(gt.cell_to_world(0, 0), gt.cell_to_world(0, 2))
    unsolvable = JourneyQuery(gt.cell_to_world(0, 0), gt.cell_to_world(2, 0))
    with pytest.raises(ValueError, match="unsolvable"):
        oracle_plans(gt, [solvable, unsolvable])
    with pytest.raises(ValueError, match="oracle plans"):
        evaluate_map(gt, gt, [solvable, solvable], oracle_plans(gt, [solvable]))


def _assert_labels_match_planner(m):
    labels = component_labels(m)
    free = m.cells == int(T)
    assert ((labels > 0) == free).all()
    cells = [(int(i), int(j)) for j, i in np.argwhere(free)]
    for a, (ia, ja) in enumerate(cells):
        for ib, jb in cells[a + 1 :]:
            plan = plan_path(m, m.cell_to_world(ia, ja), m.cell_to_world(ib, jb))
            assert (labels[ja, ia] == labels[jb, ib]) == (plan is not None), ((ia, ja), (ib, jb))


def test_component_labels_join_diagonal_only_cells():
    # T . .      three cells touching only at corners form one component;
    # . T .      the lone cell across the UNKNOWN column forms another
    # . . T U T
    m = new_map(0, 0, 0.5, 0.3, 0.1)
    m.cells[:, :] = int(U)
    for i, j in [(0, 2), (1, 1), (2, 0), (4, 0)]:
        m.set_cell(i, j, T)
    m.set_cell(3, 0, CellState.UNKNOWN)
    labels = component_labels(m)
    assert labels[2, 0] == labels[1, 1] == labels[0, 2] != labels[0, 4]
    _assert_labels_match_planner(m)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_component_labels_agree_with_plan_path(data):
    w = data.draw(st.integers(1, 6))
    h = data.draw(st.integers(1, 6))
    states = st.sampled_from([int(T), int(T), int(U), int(CellState.UNKNOWN)])
    m = new_map(0, 0, w * 0.1, h * 0.1, 0.1)
    m.cells[:, :] = np.array(data.draw(st.lists(states, min_size=w * h, max_size=w * h))).reshape(h, w)
    _assert_labels_match_planner(m)


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


def test_sample_queries_rejects_unreachable_separation_before_drawing():
    # The farthest pair of a 0.3 m strip is its two end cells; that distance is met, a hair more is not.
    gt = all_free(3, 1)
    ends = gt.cell_to_world(0, 0), gt.cell_to_world(2, 0)
    farthest = math.hypot(ends[1][0] - ends[0][0], ends[1][1] - ends[0][1])
    (q,) = sample_queries(gt, 1, seed=0, min_separation=farthest)
    assert {q.start, q.goal} == set(ends)
    with pytest.raises(ValueError, match="min_separation .* is longer than"):
        sample_queries(gt, 1, seed=0, min_separation=math.nextafter(farthest, math.inf))


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


@pytest.mark.parametrize("field", ["combination", "scenario"])
@pytest.mark.parametrize("text", ["a,b", 'a"b', "a\rb", "a\nb"])
def test_report_row_keeps_five_fields(field, text):
    values = {"combination": "SfM", "scenario": "I"}
    with pytest.raises(ValueError, match=f"{field} must not hold"):
        ReportRow(**{**values, field: text}, score=1.0, n_queries=20, n_failed=3)
