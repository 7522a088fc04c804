#!/usr/bin/env python3
"""Print SHA-256 digests of travmap's outputs, one line per output set.

For each scenario (builtin I, L or T, or a scenario file; default I L T):

* ``ablate`` at seeds 0 and 7: every file ``travmap ablate`` writes, hashed
  as perfbench's ``# digest`` lines hash them;
* ``simulate`` at seed 0: the frame dump;
* ``noisy`` at seed 3 with odometry noise (0.005 m, 0.0025 rad per frame):
  the evidence log and maps ``travmap build`` writes for every combination,
  plus the run's optimization events and its position, occlusion and pair
  diagnostics;
* ``reanchor`` at seed 3 with the same noise and closures disabled: for the
  first, middle and last keyframe pairs ``pipeline.truth_closures`` accepts
  (as perfbench's ``reanchor`` workload lists them), the maps of every
  combination after closing that loop and optimizing;
* ``posegraph`` on the same open-loop graph: for every accepted pair in
  turn, the graph's ``dumps()`` text and the optimization event after
  closing that loop, so a pose change too small to reach a map cell shows.
  Scenarios with the same open-loop graph and pairs (I, L and T share the
  robot loop and the odometry draws) share one computation of this line.

Two checkouts produce the same bytes when they print the same lines::

    PYTHONPATH=src python scripts/output_digests.py > before.txt
    # ... change the code ...
    PYTHONPATH=src python scripts/output_digests.py | diff before.txt -
"""

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import pathlib
import tempfile

from travmap import cli, pipeline
from travmap.scenario import load_scenario

ABLATE_SEEDS = (0, 7)
SIMULATE_SEED = 0
NOISY_SEED = 3
NOISY_SIGMAS = {"odom_sigma_trans": 0.005, "odom_sigma_rot": 0.0025}


def _files_digest(directory: pathlib.Path):
    """SHA-256 over each file's name, length and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h


def _cli_digest(out: pathlib.Path, *argv: str) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    if code != 0:
        raise SystemExit(f"travmap {' '.join(argv)} exited with {code}")
    return _files_digest(out).hexdigest()


def cli_lines(scenario: str, label: str, run_dir: pathlib.Path) -> list[str]:
    """The ``ablate`` lines at ``ABLATE_SEEDS`` and the ``simulate`` line for ``scenario``, named ``label``.

    Their outputs carry no LAPACK bits, so ``tests/golden_digests.txt`` can pin them.
    """
    lines = []
    for seed in ABLATE_SEEDS:
        digest = _cli_digest(run_dir / f"ablate{seed}", "ablate", "--scenario", scenario, "--seed", str(seed))
        lines.append(f"ablate scene={label} seed={seed} sha256={digest}")
    digest = _cli_digest(run_dir / "simulate", "simulate", "--scenario", scenario, "--seed", str(SIMULATE_SEED))
    return [*lines, f"simulate scene={label} seed={SIMULATE_SEED} sha256={digest}"]


def _noisy_digest(scenario: str, out: pathlib.Path) -> str:
    scene = dataclasses.replace(load_scenario(scenario), rng_seed=NOISY_SEED, **NOISY_SIGMAS)
    result = pipeline.run_pipeline(scene)
    maps = {pipeline.combo_label(layers): pipeline.build_combo_map(result, layers) for layers in pipeline.COMBINATIONS}
    pipeline.write_map_artifacts(out, result, pipeline.ground_truth_map(scene), maps)
    h = _files_digest(out)
    for records in (result.events, result.position_diags, result.occlusion_diags, result.pair_diags):
        h.update(repr(records).encode())
    return h.hexdigest()


def _closures(scenario: str):
    """The open-loop noisy run, and each keyframe pair ``pipeline.truth_closures`` accepts."""
    scene = dataclasses.replace(load_scenario(scenario), rng_seed=NOISY_SEED, **NOISY_SIGMAS)
    result = pipeline.run_pipeline(scene, pipeline.PipelineParams(enable_closures=False))
    return result, pipeline.truth_closures(result.truth, result.params)


def _closed(result, older: int, newer: int, rel):
    graph = copy.deepcopy(result.graph)
    graph.add_loop_closure(older, newer, rel)
    return graph, graph.optimize()


def _reanchor_digest(result, closures) -> str:
    """One digest over the maps after closing the first, middle and last pair."""
    h = hashlib.sha256()
    chosen = sorted({closures[0], closures[len(closures) // 2], closures[-1]}, key=lambda c: c[:2]) if closures else ()
    for older, newer, rel in chosen:
        graph, event = _closed(result, older, newer, rel)
        h.update(repr((older, newer, event)).encode())
        closed = dataclasses.replace(result, graph=graph)
        for layers in pipeline.COMBINATIONS:
            h.update(pipeline.build_combo_map(closed, layers).cells.tobytes())
    return h.hexdigest()


def _posegraph_digest(result, closures) -> str:
    """One digest over the optimized graph and its event after closing each pair in turn."""
    h = hashlib.sha256()
    for older, newer, rel in closures:
        graph, event = _closed(result, older, newer, rel)
        h.update(graph.dumps().encode())
        h.update(repr(event).encode())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scenarios", nargs="*", default=["I", "L", "T"], metavar="SCENARIO")
    args = ap.parse_args()
    posegraph_digests = {}  # by open-loop graph text and closure list
    with tempfile.TemporaryDirectory() as tmp:
        for n, scenario in enumerate(args.scenarios):
            run_dir = pathlib.Path(tmp) / str(n)
            print(*cli_lines(scenario, scenario, run_dir), sep="\n")
            digest = _noisy_digest(scenario, run_dir / "noisy")
            print(f"noisy scene={scenario} seed={NOISY_SEED} sha256={digest}")
            result, closures = _closures(scenario)
            digest = _reanchor_digest(result, closures)
            print(f"reanchor scene={scenario} seed={NOISY_SEED} pairs={len(closures)} sha256={digest}")
            key = (result.graph.dumps(), repr(closures))
            if key not in posegraph_digests:
                posegraph_digests[key] = _posegraph_digest(result, closures)
            digest = posegraph_digests[key]
            print(f"posegraph scene={scenario} seed={NOISY_SEED} pairs={len(closures)} sha256={digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
