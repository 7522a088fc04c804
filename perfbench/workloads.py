"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed when it is created
(set-up), then runs one op per ``run_op`` call.  An op wraps exactly the calls
into travmap's public functions in its ``Stopwatch``; every correctness check
runs after the clock has stopped.  A failed check raises ``CheckFailed``.

Ops cycle through a fixed list of ``cycle`` inputs, so a run's median is taken
over the same mix of inputs whatever the machine's speed, and each repeated
input is checked against its first result.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import io
import math
import random
import shutil

from travmap import cli, gridmap, pipeline, posegraph, quality, scenario, scenesim

SCENES = ("I", "L", "T")
N_QUERIES = 20  # the CLI default
COMBOS = tuple(pipeline.combo_label(layers) for layers in pipeline.COMBINATIONS)

#: Odometry noise per frame for ``reanchor`` (the drift level of ROADMAP item 4).
ODOM_SIGMA_TRANS = 0.005  # m
ODOM_SIGMA_ROT = 0.0025  # rad


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's invariants."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _scene(kind: str, seed: int, **overrides) -> scenesim.SceneConfig:
    return dataclasses.replace(scenario.load_scenario(kind), rng_seed=seed, **overrides)


def _maps_digest(maps) -> str:
    h = hashlib.sha256()
    for m in maps:
        h.update(repr((m.origin, m.resolution, m.width, m.height)).encode())
        h.update(m.cells.tobytes())
    return h.hexdigest()


class Ablate:
    """One op: ``travmap ablate`` in-process for one scene, defaults.

    The inputs are I, L and T in turn, so one pass over them is one ablation
    of all three scenes.
    """

    name = "ablate"
    cycle = len(SCENES)
    latency = ("ablation_s", "s", 1.0)  # name, unit, scale from seconds; a pass, I + L + T
    per_pass = True
    throughput = None

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.truth = {kind: scenesim.ground_truth_map(_scene(kind, seed)) for kind in SCENES}
        self.first: dict[int, str] = {}  # input -> digest of its first op's outputs

    def run_op(self, k: int, watch) -> None:
        i = k % self.cycle
        kind = SCENES[i]
        out = self.workdir / f"op{k}-{kind}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), watch:
            code = cli.main(["ablate", "--scenario", kind, "--seed", str(self.seed), "--out", str(out)])
        try:
            check(code == 0, f"{kind}: exit code {code}")
            digest = self._check_scene(kind, out, stdout.getvalue())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        first = self.first.setdefault(i, digest)
        check(digest == first, f"{kind}: outputs differ from the first op at seed {self.seed}")

    def _check_scene(self, kind: str, out, stdout: str) -> str:
        """Check one scene's outputs; return their SHA-256."""
        truth = self.truth[kind]
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        expected = {"ground_truth.pgm", "report.csv", "evidence.log"} | {f"{kind}_{c}.pgm" for c in COMBOS}
        check(set(files) == expected, f"{kind}: output files {sorted(files)}")

        h = hashlib.sha256()
        for fname, data in files.items():
            h.update(fname.encode() + b"\0" + len(data).to_bytes(8, "little") + data)

        report = files["report.csv"].decode("ascii")
        check(report in stdout, f"{kind}: report.csv is not what the command printed")
        lines = report.splitlines()
        check(lines[0] == "combination,scenario,score_m,n_queries,n_failed", f"{kind}: header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        check(len(rows) == len(COMBOS) and all(len(r) == 5 for r in rows), f"{kind}: malformed rows {rows}")
        check(sorted(r[0] for r in rows) == sorted(COMBOS), f"{kind}: combinations {[r[0] for r in rows]}")
        for combo, scene_name, score, n_queries, n_failed in rows:
            check(scene_name == kind, f"{kind}: row scenario {scene_name!r}")
            check(math.isfinite(float(score)) and float(score) >= 0.0, f"{kind} {combo}: score {score}")
            check(int(n_queries) == N_QUERIES and 0 <= int(n_failed) <= int(n_queries), f"{kind} {combo}: counts")

        for fname, data in files.items():
            if fname.endswith(".pgm"):
                m = gridmap.import_pgm(data, truth.origin, truth.resolution)
                check(m.same_geometry(truth), f"{kind}: {fname} geometry differs from the ground truth")
        gt = gridmap.import_pgm(files["ground_truth.pgm"], truth.origin, truth.resolution)
        check((gt.cells == truth.cells).all(), f"{kind}: ground_truth.pgm differs from the ground-truth map")
        return h.hexdigest()

    def info(self) -> list[str]:
        return [f"digest ablate scene={SCENES[i]} seed={self.seed} sha256={d}" for i, d in sorted(self.first.items())]


class Journeys:
    """One op: sample one query set on a scene's ground truth, score its 7 maps."""

    name = "journeys"
    query_seeds = 20  # 60 distinct query sets: fewer let the chosen sets move the median
    cycle = query_seeds * len(SCENES)
    latency = ("query_set_ms", "ms", 1000.0)
    per_pass = False
    throughput = ("journeys_per_s", N_QUERIES * len(COMBOS))  # (queries x maps) scored per op

    def __init__(self, seed: int, workdir):
        params = pipeline.PipelineParams()
        self.scenes = {}
        for kind in SCENES:
            scene = _scene(kind, seed)
            result = pipeline.run_pipeline(scene, params)
            rebuild = dataclasses.replace(params.rebuild, robot_radius=scene.robot_radius)
            maps = [
                pipeline.build_combo_map(result, layers, priority=params.priority, params=rebuild)
                for layers in pipeline.COMBINATIONS
            ]
            self.scenes[kind] = (scenesim.ground_truth_map(scene), maps)
        rng = random.Random(seed)
        self.inputs = [(kind, rng.randrange(2**31)) for _ in range(self.query_seeds) for kind in SCENES]
        self.first: dict[int, tuple] = {}  # input -> its first op's outcome

    def run_op(self, k: int, watch) -> None:
        i = k % self.cycle
        kind, query_seed = self.inputs[i]
        gt, maps = self.scenes[kind]
        with watch:
            queries = quality.sample_queries(gt, N_QUERIES, query_seed)
            evaluations = [quality.evaluate_map(m, gt, queries) for m in maps]

        check(len(queries) == N_QUERIES, f"{len(queries)} queries")
        for ev in evaluations:
            check(ev.n_queries == N_QUERIES and 0 <= ev.n_failed <= N_QUERIES, f"counts {ev.n_queries}/{ev.n_failed}")
            check(math.isfinite(ev.score) and ev.score >= 0.0, f"score {ev.score}")
        outcome = (queries, [(ev.score, ev.n_failed, ev.errors) for ev in evaluations])
        first = self.first.get(i)
        if first is None:
            self_score = quality.evaluate_map(gt, gt, queries)
            check(self_score.score == 0.0 and self_score.n_failed == 0, f"ground truth scores {self_score.score}")
            self.first[i] = outcome
        else:
            check(outcome == first, f"scene {kind} query seed {query_seed}: results differ from the first op")

    def info(self) -> list[str]:
        return []


class Reanchor:
    """One op: add one loop closure to the open-loop T graph, optimize, rebuild 7 maps."""

    name = "reanchor"
    latency = ("reanchor_ms", "ms", 1000.0)
    per_pass = False
    throughput = None

    def __init__(self, seed: int, workdir):
        scene = _scene("T", seed, odom_sigma_trans=ODOM_SIGMA_TRANS, odom_sigma_rot=ODOM_SIGMA_ROT)
        self.params = pipeline.PipelineParams(enable_closures=False)
        self.rebuild = dataclasses.replace(self.params.rebuild, robot_radius=scene.robot_radius)
        self.result = pipeline.run_pipeline(scene, self.params)
        stride = self.params.keyframe_stride  # keyframe k is frame k * stride
        truth = {kf: posegraph.Pose2(*self.result.truth.camera_poses[kf * stride]) for kf in self.result.graph.nodes}
        # Every keyframe pair the pipeline's closure rule accepts, with its true relative pose.
        self.closures = [
            (older, newer, posegraph.se2_compose(posegraph.se2_inverse(truth[older]), truth[newer]))
            for newer in sorted(truth)
            for older in sorted(truth)
            if newer - older >= self.params.closure_min_gap
            and math.hypot(truth[newer].x - truth[older].x, truth[newer].y - truth[older].y) <= self.params.closure_radius
        ]
        check(bool(self.closures), "no keyframe pair meets the closure rule")
        self.cycle = len(self.closures)
        self.first: dict[int, str] = {}  # input -> digest of its first op's maps

    def _maps(self, result):
        return [
            pipeline.build_combo_map(result, layers, priority=self.params.priority, params=self.rebuild)
            for layers in pipeline.COMBINATIONS
        ]

    def run_op(self, k: int, watch) -> None:
        i = k % self.cycle
        older, newer, rel = self.closures[i]
        # deepcopy, not PoseGraph.dumps/loads: with noisy odometry dumps writes
        # "np.float64(...)" into EDGE_SE2 lines, which loads cannot parse.
        graph = copy.deepcopy(self.result.graph)
        result = dataclasses.replace(self.result, graph=graph)
        with watch:
            graph.add_loop_closure(older, newer, rel)
            event = graph.optimize()
            maps = self._maps(result)

        trace = event.chi2_trace
        check(all(b <= a for a, b in zip(trace, trace[1:])), f"closure {older}-{newer}: chi2 rose {trace}")
        check(bool(event.updated), f"closure {older}-{newer}: no pose moved")
        digest = _maps_digest(maps)
        first = self.first.get(i)
        if first is None:
            check(_maps_digest(self._maps(result)) == digest, f"closure {older}-{newer}: rebuild is not repeatable")
            self.first[i] = digest
        else:
            check(digest == first, f"closure {older}-{newer}: maps differ from the first op")

    def info(self) -> list[str]:
        return [f"reanchor graph keyframes={len(self.result.graph.nodes)} records={len(self.result.store)} closures={self.cycle}"]


WORKLOADS = {w.name: w for w in (Ablate, Journeys, Reanchor)}
