"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines and timings.
"""

import math
import time

import numpy as np
import pytest

from _oracles import dijkstra_cost, paint_expected_map
from travmap import pipeline
from travmap.cli import main as cli_main
from travmap.evidence import ALL_LAYERS, EvidenceStore, RebuildParams, rebuild_map
from travmap.gridmap import CellState, LayerPriority, export_pgm, new_map
from travmap.posegraph import Pose2, PoseGraph, se2_compose, se2_inverse, wrap_angle
from travmap.quality import JourneyQuery, evaluate_map, plan_path, sample_queries
from travmap.scenesim import builtin_config, ground_truth_map


def _report(name: str, elapsed: float, detail: str = ""):
    print(f"[PASS] {name} ({elapsed:.2f}s) {detail}".rstrip())


def test_criterion_01_metric_identity():
    t0 = time.perf_counter()
    for kind in ("I", "L", "T"):
        gt = ground_truth_map(builtin_config(kind))
        queries = sample_queries(gt, 20, seed=11)
        result = evaluate_map(gt, gt, queries)
        assert result.score == 0.0, f"{kind}: self-evaluation must be exactly 0"
        assert result.n_failed == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion 1: metric identity on I/L/T ground truths", elapsed)


def test_criterion_02_planner_optimality():
    t0 = time.perf_counter()
    solved = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = new_map(0, 0, 1.5, 1.5, 0.1)
        m.cells[:, :] = np.where(rng.random((15, 15)) < 0.3, int(CellState.UNTRAVERSABLE), int(CellState.TRAVERSABLE))
        trav = np.argwhere(m.cells == int(CellState.TRAVERSABLE))
        ja, ia = trav[0]
        jb, ib = trav[-1]
        start, goal = (int(ia), int(ja)), (int(ib), int(jb))
        oracle = dijkstra_cost(m, start, goal)
        plan = plan_path(m, m.cell_to_world(*start), m.cell_to_world(*goal))
        if oracle is None:
            assert plan is None
        else:
            assert plan is not None and plan.cost == oracle
            solved += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion 2: planner cost equals Dijkstra oracle", elapsed, f"{solved}/100 solvable, all exact")


def test_criterion_03_hand_derived_metric_case():
    t0 = time.perf_counter()
    gt = new_map(0, 0, 0.3, 0.3, 0.1)
    gt.cells[:, :] = int(CellState.TRAVERSABLE)
    candidate = gt.copy()
    candidate.set_cell(0, 1, CellState.UNTRAVERSABLE)
    q = JourneyQuery(gt.cell_to_world(0, 0), gt.cell_to_world(0, 2))
    result = evaluate_map(candidate, gt, [q])
    assert abs(result.score - 0.1 / 3) <= 1e-9
    elapsed = time.perf_counter() - t0
    _report("criterion 3: 3x3 detour scores 0.0333 m", elapsed, f"score={result.score:.10f}")


def test_criterion_04_pose_graph_recovery():
    t0 = time.perf_counter()
    true_poses = [Pose2(0, 0, 0), Pose2(1, 0, math.pi / 2), Pose2(1, 1, math.pi), Pose2(0, 1, -math.pi / 2)]
    g = PoseGraph()
    for _ in range(3):
        g.add_keyframe(Pose2(1, 0, math.pi / 2))
    g.add_loop_closure(3, 0, se2_compose(se2_inverse(true_poses[3]), true_poses[0]))
    p = g.nodes[1]
    g.nodes[1] = Pose2(p.x + 0.1, p.y, p.theta)  # perturbed initialization
    event = g.optimize(max_iters=50, tol=1e-15)
    elapsed = time.perf_counter() - t0

    assert event.iterations <= 50
    chi2 = g.chi2()
    assert chi2 < 1e-12
    max_err = 0.0
    for node, truth in enumerate(true_poses):
        got = g.nodes[node]
        max_err = max(
            max_err, abs(got.x - truth.x), abs(got.y - truth.y), abs(wrap_angle(got.theta - truth.theta))
        )
    assert max_err < 1e-6
    trace = event.chi2_trace
    assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:])), "chi2 must be monotone on accepted steps"
    assert elapsed < 1.0
    _report(
        "criterion 4: square loop recovery",
        elapsed,
        f"chi2={chi2:.2e} max_err={max_err:.2e} iters={event.iterations}",
    )


def test_criterion_05_reanchoring_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    graph = PoseGraph()
    store = EvidenceStore()
    base = new_map(-2.0, -2.0, 4.0, 4.0, 0.1)
    # The fusion order and radii this criterion was written against: trails on top, 0.5 m robot radius.
    order, radii = LayerPriority(("sfm", "ho3", "pfh")), RebuildParams()
    true_poses = [Pose2()]
    fid = 0
    rebuilds = []

    def ingest(kf: int):
        nonlocal fid
        store.add_sfm(fid, kf, (0.9, 0.35))
        fid += 1
        store.add_sfm(fid, kf, (0.9, -0.35))
        fid += 1
        store.add_pfh(kf, (0.7, 0.0), track_id=0)
        store.add_ho3(fid - 2, fid - 1, 0)

    ingest(0)
    for k in range(16):
        odom_true = Pose2(0.5, 0.0, math.pi / 2 if (k + 1) % 4 == 0 else 0.0)
        true_poses.append(se2_compose(true_poses[-1], odom_true))
        noisy = Pose2(
            odom_true.x + rng.normal(0, 0.02),
            odom_true.y + rng.normal(0, 0.02),
            odom_true.theta + rng.normal(0, 0.015),
        )
        kf = graph.add_keyframe(noisy)
        ingest(kf)
        if k == 7:
            graph.add_loop_closure(4, 8, se2_compose(se2_inverse(true_poses[4]), true_poses[8]))
            ev1 = graph.optimize()
            assert ev1.updated
            rebuilds.append(rebuild_map(store, graph.snapshot(), base, ALL_LAYERS, order, radii))
    graph.add_loop_closure(0, 16, se2_compose(se2_inverse(true_poses[0]), true_poses[16]))
    ev2 = graph.optimize()
    assert ev2.updated
    incremental = rebuild_map(store, graph.snapshot(), base, ALL_LAYERS, order, radii)
    incremental_bytes = export_pgm(incremental)

    # from scratch: replay the identical evidence stream against the final poses
    replay = EvidenceStore()
    for rec in store.records:
        for _ in range(getattr(rec, "weight", 1)):  # PfH records are never folded: one observation each
            if hasattr(rec, "feature_id"):
                replay.add_sfm(rec.feature_id, rec.keyframe_id, rec.offset)
            elif hasattr(rec, "offset"):
                replay.add_pfh(rec.keyframe_id, rec.offset, rec.track_id)
            else:
                replay.add_ho3(rec.front_id, rec.behind_id, rec.track_id)
    final_snapshot = dict(graph.snapshot())
    scratch_bytes = export_pgm(rebuild_map(replay, final_snapshot, base, ALL_LAYERS, order, radii))
    assert incremental_bytes == scratch_bytes

    # independent painter oracle at the final poses
    painted = paint_expected_map(store.records, final_snapshot, base, ALL_LAYERS, order, radii)
    painted_map = new_map(-2.0, -2.0, 4.0, 4.0, 0.1)
    painted_map.cells[:, :] = painted
    assert incremental_bytes == export_pgm(painted_map)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        "criterion 5: re-anchored map byte-identical to from-scratch rebuild",
        elapsed,
        f"{len(store.records)} records, 2 optimizations, {len(incremental_bytes)} PGM bytes",
    )


def test_criterion_06_depth_model(i_result):
    t0 = time.perf_counter()
    assert abs(i_result.calibration.k - 1.0) <= 1e-9
    assert i_result.position_diags, "the I run must estimate human positions"
    worst = max(
        math.hypot(d.estimated[0] - d.true_world[0], d.estimated[1] - d.true_world[1])
        for d in i_result.position_diags
    )
    assert worst < 0.1, f"worst per-frame position error {worst:.4f} m"
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 6: scale calibration and human localization",
        elapsed,
        f"k={i_result.calibration.k!r} worst_err={worst:.2e} m over {len(i_result.position_diags)} frames",
    )


def test_criterion_07_occlusion_ordering_soundness(i_result):
    t0 = time.perf_counter()
    true_feat = {}
    true_hum = {}
    for f, detected in zip(i_result.frames, i_result.truth.detected, strict=True):
        for fid, depth in zip(f.features["feature_id"].tolist(), f.features["depth"].tolist()):
            true_feat[(f.frame_index, fid)] = depth
        for agent_index, depth in detected:
            true_hum[(f.frame_index, agent_index)] = depth
    assert i_result.occlusion_diags, "the I run must classify occlusion candidates"
    for d in i_result.occlusion_diags:
        fd = true_feat[(d.frame_index, d.feature_id)]
        hd = true_hum[(d.frame_index, d.agent_index)]
        oracle = "front" if fd < hd else "behind"
        assert oracle == d.label.value, f"frame {d.frame_index} feature {d.feature_id}: {d.label} vs {oracle}"
    assert i_result.pair_diags, "the I run must emit pass-between pairs"
    for p in i_result.pair_diags:
        assert p.front_depth < p.human_depth < p.behind_depth
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 7: occlusion ordering matches the depth oracle",
        elapsed,
        f"{len(i_result.occlusion_diags)} classifications, {len(i_result.pair_diags)} pairs, 100% agreement",
    )


def test_criterion_08_directional_trends():
    t0 = time.perf_counter()
    seeds = range(10)

    def scores(kind, combos):
        """Each combination's score per seed, as ``ablate`` scores them.

        The scene draws no noise, so it is mapped once; each seed draws its own queries.
        """
        scene, params = builtin_config(kind), pipeline.PipelineParams()
        assert not scene.noisy
        gt = ground_truth_map(scene)
        mapped = pipeline.map_scene(scene, pipeline.parse_combos(combos, params.priority), params)
        out = {c: [] for c in combos}
        for seed in seeds:
            queries = sample_queries(gt, pipeline.RunConfig.n_queries, seed, pipeline.RunConfig.min_separation)
            for r in pipeline.score_maps(mapped[1].items(), gt, queries, scene.name).rows:
                out[r.combination].append(r.score)
        return out

    t_scores = scores("T", ("SfM+PfH+HO3", "SfM"))
    fused_mean = float(np.mean(t_scores["SfM+PfH+HO3"]))
    sfm_mean = float(np.mean(t_scores["SfM"]))
    assert fused_mean < sfm_mean, f"T-config: fused {fused_mean} must beat SfM alone {sfm_mean} strictly"

    combos = ("SfM+PfH", "SfM", "PfH", "HO3")
    i_scores = scores("I", combos)
    means = {c: float(np.mean(v)) for c, v in i_scores.items()}
    for single in ("SfM", "PfH", "HO3"):
        assert means["SfM+PfH"] <= means[single] + 1e-12, f"I-config: SfM+PfH vs {single}: {means}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        "criterion 8: ablation trends over 10 seeds",
        elapsed,
        f"T fused {fused_mean:.3f} < SfM {sfm_mean:.3f}; I means "
        + " ".join(f"{c}={means[c]:.3f}" for c in combos),
    )


def test_criterion_09_bit_exact_pgm():
    t0 = time.perf_counter()
    m = new_map(0, 0, 0.2, 0.2, 0.1)
    m.set_cell(0, 0, CellState.UNTRAVERSABLE)
    m.set_cell(1, 1, CellState.TRAVERSABLE)
    data = export_pgm(m)
    header = b"P5\n2 2\n255\n"
    assert data == header + bytes([205, 254, 0, 205])
    assert len(data) == len(header) + 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion 9: bit-exact PGM encoding", elapsed, f"{data[:11]!r}...")


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        rc = cli_main(["ablate", "--scenario", "I", "--seed", "7", "--out", str(d)])
        assert rc == 0
    files_a = sorted(p.name for p in dirs[0].iterdir())
    files_b = sorted(p.name for p in dirs[1].iterdir())
    assert files_a == files_b
    assert any(name.endswith(".pgm") for name in files_a)
    for name in files_a:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), f"{name} differs between runs"
    report_lines = (dirs[0] / "report.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in report_lines[1:]] == [
        "SfM+PfH+HO3", "SfM+PfH", "SfM+HO3", "PfH+HO3", "SfM", "PfH", "HO3",
    ]
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("criterion 10: byte-identical ablation reruns", elapsed, f"{len(files_a)} files compared")
