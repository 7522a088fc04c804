#!/usr/bin/env python3
"""Print the median time of each stage of an in-process ``ablate`` pass over I, L and T.

One pass runs ``pipeline.run_ablation`` on each scenario at ``--seed`` with
every combination, writing its files to a temporary directory, as
``travmap ablate`` does.  A stage's time is the time spent in the functions
that run it, less the time spent in other stages' functions they call, summed
over the pass; each line prints its median over ``--repeats`` passes and the
range, in ms:

* simulate (``simulate_sequence``), ground truth (``ground_truth_map``);
* ingest, then its parts: poses (the keyframe and odometry pass), optimize
  (``PoseGraph.optimize``), detections (each detection's range, position and
  trail offset), tracking (the one loop over frames), landmarks,
  pass-between, log (the merge of the evidence layers into the log), and the
  rest of ingest (its trail rows, pass-between jobs and set-up);
* queries (``sample_queries``), oracle plans (``oracle_plans``), rebuild
  (``build_combo_map``), evaluate (``evaluate_map``), write
  (``write_map_artifacts``), and the rest of the pass.

Stages are timed by wrapping those functions under the names their callers
look them up by.  Ingest's parts are timed in passes of their own, which
alternate with the passes that time the other stages, so that the ingest
line holds all of ingest.  A part whose function a tree does not have (an
older checkout's) prints as ``-``::

    PYTHONPATH=src python scripts/stage_times.py --repeats 15
"""

import argparse
import contextlib
import statistics
import tempfile
import time

from travmap import pipeline
from travmap.posegraph import PoseGraph

#: (owner, attribute, stage) of each function timed in the stage passes.
STAGES = (
    (pipeline, "simulate_sequence", "simulate"),
    (pipeline, "ground_truth_map", "ground truth"),
    (pipeline, "ingest", "ingest"),
    (pipeline, "sample_queries", "queries"),
    (pipeline, "oracle_plans", "oracle plans"),
    (pipeline, "build_combo_map", "rebuild"),
    (pipeline, "evaluate_map", "evaluate"),
    (pipeline, "write_map_artifacts", "write"),
)
#: (owner, attribute, part) of each function timed in the ingest passes.
INGEST_PARTS = (
    (pipeline, "ingest", "rest of ingest"),
    (pipeline, "_poses", "poses"),
    (PoseGraph, "optimize", "optimize"),
    (pipeline, "_array_pass", "detections"),
    (pipeline, "_track_humans", "tracking"),
    (pipeline, "_landmarks", "landmarks"),
    (pipeline, "_pass_between", "pass-between"),
    (pipeline, "_log", "log"),
)
REST = "rest of pass"


class _Timer:
    """Self time per stage: each wrapped call's time, less that of the wrapped calls inside it."""

    def __init__(self):
        self.seconds = {}
        self._stack = []  # time spent in child calls, one entry per open call

    def wrap(self, fn, stage):
        def timed(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._stack.pop()
                self.seconds[stage] += elapsed - inner
                if self._stack:
                    self._stack[-1] += elapsed

        return timed


@contextlib.contextmanager
def _wrapped(targets, timer):
    """Install ``timer``'s wrappers on the ``targets`` that exist, and restore the originals on exit."""
    present = [(owner, attr, stage) for owner, attr, stage in targets if hasattr(owner, attr)]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in present]
    try:
        for owner, attr, stage in present:
            timer.seconds[stage] = 0.0  # a stage that does not run in a pass takes no time in it
            setattr(owner, attr, timer.wrap(getattr(owner, attr), stage))
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def one_pass(scenarios, seed: int, targets) -> dict[str, float]:
    """Each stage's self time (s) over one ``run_ablation`` per scenario, and the rest of the pass under ``REST``."""
    timer = _Timer()
    with tempfile.TemporaryDirectory() as tmp, _wrapped(targets, timer):
        start = time.perf_counter()
        for n, scenario in enumerate(scenarios):
            pipeline.run_ablation(pipeline.RunConfig(scenario=scenario, seed=seed, out_dir=f"{tmp}/{n}"))
        total = time.perf_counter() - start
    timer.seconds[REST] = total - sum(timer.seconds.values())
    return timer.seconds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scenarios", nargs="*", default=["I", "L", "T"], metavar="SCENARIO")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=5, help="passes of each kind")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    one_pass(args.scenarios, args.seed, ())  # warm-up: imports, caches and first-touch pages
    stages, parts = [], []
    for _ in range(args.repeats):
        stages.append(one_pass(args.scenarios, args.seed, STAGES))
        parts.append(one_pass(args.scenarios, args.seed, INGEST_PARTS))

    def line(name, runs, indent=""):
        ms = [1e3 * run[name] for run in runs if name in run]
        if not ms:
            return f"{indent}{name:<{24 - len(indent)}}{'-':>9}"
        return f"{indent}{name:<{24 - len(indent)}}{statistics.median(ms):9.1f}   ({min(ms):.1f}-{max(ms):.1f})"

    scenes = "+".join(args.scenarios)
    print(f"stage                   median ms   (range) over {args.repeats} passes of {scenes}, seed {args.seed}")
    for _, _, stage in STAGES:
        print(line(stage, stages))
        if stage == "ingest":
            for part in dict.fromkeys(part for _, _, part in INGEST_PARTS):
                print(line(part, parts, indent="  "))
    print(line(REST, stages))
    totals = [sum(run.values()) * 1e3 for run in stages]
    print(f"{'pass':<24}{statistics.median(totals):9.1f}   ({min(totals):.1f}-{max(totals):.1f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
