"""Journey-based map quality: A* planning, oracle-vs-user waypoint error, reports.

A map is scored from the point of view of map users, each represented by a
start/goal journey.  The user plans on the candidate map, an oracle plans on
the ground-truth map, and the error is the mean distance from each oracle
waypoint to the nearest user waypoint.  Journeys the candidate cannot solve
are charged a penalty (by default the oracle's path cost).  Lower is better.

Path costs are accumulated as (straight, diagonal) step counts and converted
to meters once, so optimal costs compare bit-exactly against any other planner
using the same representation.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .evidence import ALL_LAYERS
from .gridmap import CellState, OutOfBoundsError, TraversabilityMap
from .scenesim import check_bounds, check_report_field

__all__ = [
    "JourneyQuery",
    "PathPlan",
    "EvaluationResult",
    "ReportRow",
    "QualityReport",
    "plan_path",
    "journey_error",
    "oracle_plans",
    "evaluate_map",
    "component_labels",
    "sample_queries",
]

_SQRT2 = math.sqrt(2.0)

# Neighbor order fixed for determinism: straight moves first, then diagonals.
_NEIGHBORS = (
    (1, 0, 0, 1),
    (-1, 0, 0, 1),
    (0, 1, 0, 1),
    (0, -1, 0, 1),
    (1, 1, 1, 0),
    (1, -1, 1, 0),
    (-1, 1, 1, 0),
    (-1, -1, 1, 0),
)


@dataclass(frozen=True)
class JourneyQuery:
    """One map user: where they start and where they want to go (world coords)."""

    start: tuple[float, float]
    goal: tuple[float, float]


@dataclass
class PathPlan:
    """8-connected grid path; waypoints are cell centers, cost in meters."""

    waypoints: list[tuple[float, float]]
    cost: float
    cells: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class EvaluationResult:
    score: float
    n_queries: int
    n_failed: int
    errors: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class ReportRow:
    combination: str
    scenario: str
    score: float
    n_queries: int
    n_failed: int

    def __post_init__(self):
        check_report_field("combination", self.combination)
        check_report_field("scenario", self.scenario)


#: Each evidence layer's name in reports, in layer order.
LAYER_LABELS = dict(zip(ALL_LAYERS, ("SfM", "PfH", "HO3")))


def combo_label(layers: Sequence[str]) -> str:
    return "+".join(label for layer, label in LAYER_LABELS.items() if layer in layers)


#: Every module combination in report order: larger sets first, each in layer order.
COMBINATIONS = tuple(c for size in range(len(ALL_LAYERS), 0, -1) for c in combinations(ALL_LAYERS, size))

#: Canonical ablation-report row order; combinations not listed sort after, alphabetically.
COMBINATION_ORDER = tuple(map(combo_label, COMBINATIONS))


def _combo_rank(label: str) -> tuple[int, str]:
    try:
        return (COMBINATION_ORDER.index(label), "")
    except ValueError:
        return (len(COMBINATION_ORDER), label)


@dataclass
class QualityReport:
    rows: list[ReportRow]

    def sorted_rows(self) -> list[ReportRow]:
        return sorted(self.rows, key=lambda r: (r.scenario, _combo_rank(r.combination)))

    def to_csv(self) -> str:
        lines = ["combination,scenario,score_m,n_queries,n_failed"]
        for r in self.sorted_rows():
            lines.append(f"{r.combination},{r.scenario},{r.score:.6f},{r.n_queries},{r.n_failed}")
        return "\n".join(lines) + "\n"


def _octile_h(di: int, dj: int) -> tuple[int, int]:
    lo = min(abs(di), abs(dj))
    hi = max(abs(di), abs(dj))
    return (hi - lo, lo)


def plan_path(
    m: TraversabilityMap,
    start: tuple[float, float],
    goal: tuple[float, float],
) -> Optional[PathPlan]:
    """Optimal 8-connected path over TRAVERSABLE cells, or None when unreachable.

    UNKNOWN counts as blocked: a navigating robot cannot commit to unverified
    floor.  Ties on f-value are broken toward lower (j, i), which makes the
    returned path (not just its cost) deterministic.
    """
    si, sj = m.world_to_cell(*start)  # raises OutOfBoundsError per precondition
    gi, gj = m.world_to_cell(*goal)
    cells = m.cells
    free = cells == int(CellState.TRAVERSABLE)
    if not (free[sj, si] and free[gj, gi]):
        return None
    res = m.resolution
    diag = res * _SQRT2

    def to_m(ns: int, nd: int) -> float:
        return ns * res + nd * diag

    start_cell = (si, sj)
    goal_cell = (gi, gj)
    g_counts: dict[tuple[int, int], tuple[int, int]] = {start_cell: (0, 0)}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    hs, hd = _octile_h(gi - si, gj - sj)
    open_heap: list[tuple[float, int, int]] = [(to_m(hs, hd), sj, si)]
    closed: set[tuple[int, int]] = set()
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
        for di, dj, step_d, step_s in _NEIGHBORS:
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
            hs, hd = _octile_h(gi - ni, gj - nj)
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


def journey_error(oracle: PathPlan, user: PathPlan) -> float:
    """Mean distance from each oracle waypoint to its nearest user waypoint."""
    if not oracle.waypoints or not user.waypoints:
        raise ValueError("paths must be non-empty")
    o = np.asarray(oracle.waypoints)
    u = np.asarray(user.waypoints)
    d2 = ((o[:, None, :] - u[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min(axis=1)).mean())


def oracle_plans(ground_truth: TraversabilityMap, queries: Sequence[JourneyQuery]) -> list[PathPlan]:
    """The oracle's plan on ``ground_truth`` for each query; every query must be solvable there."""
    plans = []
    for q in queries:
        oracle = plan_path(ground_truth, q.start, q.goal)
        if oracle is None:
            raise ValueError(f"query {q} is unsolvable on the ground-truth map")
        plans.append(oracle)
    return plans


def evaluate_map(
    candidate: TraversabilityMap,
    ground_truth: TraversabilityMap,
    queries: Sequence[JourneyQuery],
    oracles: Optional[Sequence[PathPlan]] = None,
) -> EvaluationResult:
    """Score a candidate map against ground truth over the given journeys.

    Per query the oracle plans on ``ground_truth`` and the user on
    ``candidate``; a user failure costs the oracle's own path cost.  Every
    query must be solvable on the ground truth.  ``oracles``, when given, are
    the queries' :func:`oracle_plans` on ``ground_truth``, so maps scored
    against one query set share one set of oracle plans.
    """
    if not candidate.same_geometry(ground_truth):
        raise ValueError("candidate and ground-truth maps must share geometry")
    if not queries:
        raise ValueError("need at least one query")
    if oracles is None:
        oracles = oracle_plans(ground_truth, queries)
    elif len(oracles) != len(queries):
        raise ValueError(f"{len(oracles)} oracle plans for {len(queries)} queries")
    errors = []
    n_failed = 0
    for q, oracle in zip(queries, oracles):
        user = plan_path(candidate, q.start, q.goal)
        if user is None:
            n_failed += 1
            errors.append(oracle.cost)
        else:
            errors.append(journey_error(oracle, user))
    return EvaluationResult(float(np.mean(errors)), len(queries), n_failed, errors)


def component_labels(m: TraversabilityMap) -> np.ndarray:
    """Label of each cell's 8-connected component of TRAVERSABLE cells, from 1; 0 elsewhere.

    The flood fill takes ``plan_path``'s moves over ``plan_path``'s free cells,
    and A* is complete, so two cells share a label iff ``plan_path`` joins them.
    """
    free_cells = m.cells == int(CellState.TRAVERSABLE)
    free = free_cells.tolist()
    width, height = m.width, m.height
    labels = [[0] * width for _ in range(height)]
    n = 0
    for j, i in np.argwhere(free_cells).tolist():
        if labels[j][i]:
            continue
        n += 1
        labels[j][i] = n
        stack = [(i, j)]
        while stack:
            ci, cj = stack.pop()
            for di, dj, _, _ in _NEIGHBORS:
                ni, nj = ci + di, cj + dj
                if 0 <= ni < width and 0 <= nj < height and free[nj][ni] and not labels[nj][ni]:
                    labels[nj][ni] = n
                    stack.append((ni, nj))
    return np.array(labels, dtype=np.int64)


def sample_queries(
    ground_truth: TraversabilityMap,
    n: int,
    seed: int,
    min_separation: float = 2.0,
) -> list[JourneyQuery]:
    """Seeded rejection sampling of solvable start/goal pairs on traversable cells.

    A pair is solvable iff both cells lie in one :func:`component_labels` component.
    A ``min_separation`` longer than the diagonal of the traversable cell
    centres' bounding box, which no pair can reach, is rejected before drawing.
    """
    check_bounds(("n", n, 1, True), ("seed", seed, 0, True), ("min_separation", min_separation, 0.0, True))
    trav = np.argwhere(ground_truth.cells == int(CellState.TRAVERSABLE))  # rows of (j, i)
    if len(trav) < 2:
        raise ValueError("ground truth needs at least two traversable cells")
    (j_lo, i_lo), (j_hi, i_hi) = trav.min(axis=0).tolist(), trav.max(axis=0).tolist()
    lo, hi = ground_truth.cell_to_world(i_lo, j_lo), ground_truth.cell_to_world(i_hi, j_hi)
    reach = math.hypot(hi[0] - lo[0], hi[1] - lo[1])
    if min_separation > reach:
        raise ValueError(f"min_separation {min_separation} m is longer than {reach} m, the traversable cells' diagonal")
    labels = component_labels(ground_truth)
    rng = np.random.default_rng(seed)
    queries: list[JourneyQuery] = []
    attempts = 0
    limit = 10_000 * n
    while len(queries) < n:
        if attempts >= limit:
            raise ValueError(f"could not sample {n} queries after {limit} rejections")
        attempts += 1
        a, b = rng.integers(0, len(trav), size=2)
        if a == b:
            continue
        ja, ia = trav[a]
        jb, ib = trav[b]
        start = ground_truth.cell_to_world(int(ia), int(ja))
        goal = ground_truth.cell_to_world(int(ib), int(jb))
        if math.hypot(goal[0] - start[0], goal[1] - start[1]) < min_separation:
            continue
        if labels[ja, ia] != labels[jb, ib]:
            continue
        queries.append(JourneyQuery(start, goal))
    return queries
