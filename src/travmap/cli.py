"""Command-line entry points.

Subcommands:

* ``simulate`` -- dump the simulated frame stream as JSON lines.
* ``build``    -- run the pipeline and write maps plus the evidence log.
* ``evaluate`` -- score existing PGM maps against a ground-truth PGM.
* ``ablate``   -- full run: every requested combination, maps, report.csv.

``ablate`` takes one or more ``--scenario`` and ``--seed`` values.  One of each
writes its files to ``--out`` and prints ``report.csv``.  Several run every
scene at every seed, each into ``<out>/<scene name>/seed<k>/`` with the same
files a single run writes, and print one matrix: per combination and scene,
the mean score over the seeds and the solved journeys out of all queries.
Each seed draws its own queries; a scene that draws no noise is mapped once.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import pathlib
import sys
from typing import Optional, Sequence

from . import pipeline
from .evidence import RebuildParams
from .gridmap import LayerPriority, import_pgm
from .pipeline import PipelineParams, RunConfig, parse_combos, run_ablation, write_map_artifacts
from .quality import sample_queries
from .scenario import load_scenario
from .scenesim import FEATURE_DTYPE, check_report_field, simulate_sequence

__all__ = ["main"]


def _add_scenario_args(p: argparse.ArgumentParser, several: bool = False) -> None:
    """``several``: ``--scenario`` and ``--seed`` take one or more values, parsed as lists."""
    nargs = "+" if several else None
    scenario, seed = ([RunConfig.scenario], [RunConfig.seed]) if several else (RunConfig.scenario, RunConfig.seed)
    p.add_argument("--scenario", nargs=nargs, default=scenario, help="builtin kind (I, L, T) or scenario file path")
    p.add_argument("--seed", type=int, nargs=nargs, default=seed, help="simulation / query seed")
    p.add_argument("--out", default="out", help="output directory")


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega-max", type=float, default=PipelineParams.omega_max, help="turning-frame cutoff (rad/s)")
    p.add_argument("--gate", type=float, default=PipelineParams.gate_px, help="association gate (px)")
    p.add_argument("--priority", default=",".join(PipelineParams.priority.order), help="layer priority, lowest first")
    p.add_argument("--trail-half-width", type=float, default=RebuildParams.trail_half_width)
    p.add_argument("--passage-half-width", type=float, default=RebuildParams.passage_half_width)


def _params_from_args(args) -> PipelineParams:
    return PipelineParams(
        omega_max=args.omega_max,
        gate_px=args.gate,
        priority=LayerPriority(tuple(s.strip().lower() for s in args.priority.split(","))),
        rebuild=RebuildParams(trail_half_width=args.trail_half_width, passage_half_width=args.passage_half_width),
    )


def _cmd_simulate(args) -> int:
    scene = dataclasses.replace(load_scenario(args.scenario), rng_seed=args.seed)
    frames, truth = simulate_sequence(scene)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{scene.name}_frames.jsonl"
    with open(path, "w", encoding="ascii") as fh:
        for frame, pose, positions, detected in zip(frames, truth.camera_poses, truth.human_positions, truth.detected):
            # asdict cannot copy a record array; the rows are fresh dicts already, so they skip its deep copy.
            record = dataclasses.asdict(dataclasses.replace(frame, features=[]))
            record["features"] = [dict(zip(FEATURE_DTYPE.names, r)) for r in frame.features.tolist()]
            # The truth keys each line has always carried, joined back from the ground truth.
            record["camera_pose"] = pose
            for det, (agent, depth) in zip(record["detections"], detected):
                det.update(agent_index=agent, depth=depth, world=positions[agent])
            fh.write(json.dumps(record, sort_keys=True, default=float))
            fh.write("\n")
    print(f"wrote {len(frames)} frames to {path}")
    return 0


def _cmd_build(args) -> int:
    params = _params_from_args(args)
    combos = parse_combos(args.combos.split(","), params.priority)
    scene = dataclasses.replace(load_scenario(args.scenario), rng_seed=args.seed)
    # Called through ``pipeline``, where ``ablate`` calls it too, so a wrapper
    # installed there (a tracer's, say) sees both commands.
    result, maps = pipeline.map_scene(scene, combos, params)
    out = write_map_artifacts(args.out, result, pipeline.ground_truth_map(scene), maps)
    print(f"wrote maps and evidence log to {out}")
    return 0


def _cmd_evaluate(args) -> int:
    # The report's text fields, checked before any map is read.
    check_report_field("--label", args.label)
    paths = [pathlib.Path(candidate) for candidate in args.maps]
    for path in paths:
        check_report_field(f"the file stem of map {path}", path.stem)
    origin = (args.origin_x, args.origin_y)
    gt = import_pgm(pathlib.Path(args.ground_truth).read_bytes(), origin, args.resolution)
    queries = sample_queries(gt, args.queries, args.seed, args.min_separation)
    # One map read at a time, in order; two paths with the same stem are two rows.
    maps = ((path.stem, import_pgm(path.read_bytes(), origin, args.resolution)) for path in paths)
    report = pipeline.score_maps(maps, gt, queries, args.label)
    for row in report.rows:
        print(f"{row.combination}: score {row.score:.4f} m ({row.n_failed}/{row.n_queries} failed)")
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(report.to_csv(), encoding="ascii")
        print(f"wrote {out / 'report.csv'}")
    return 0


def _cmd_ablate(args) -> int:
    params = _params_from_args(args)
    config = functools.partial(
        RunConfig,
        combos=tuple(args.combos.split(",")),
        n_queries=args.queries,
        min_separation=args.min_separation,
        params=params,
    )
    if len(args.scenario) == len(args.seed) == 1:
        output = run_ablation(config(scenario=args.scenario[0], seed=args.seed[0], out_dir=args.out))
        sys.stdout.write(output.report.to_csv())
        print(f"maps and report written to {args.out}")
        return 0

    # Every run is checked, its queries sampled included, before the first one simulates.
    scenes = [load_scenario(source) for source in args.scenario]
    names = [scene.name for scene in scenes]
    for what, values in (("seed", args.seed), ("scene name", names)):
        repeated = sorted({str(v) for v in values if values.count(v) > 1})
        if repeated:
            raise ValueError(f"duplicate {what} {', '.join(repeated)}: each run needs its own directory")
    runs = [
        [config(scenario=source, seed=seed, out_dir=str(pathlib.Path(args.out, name, f"seed{seed}"))) for seed in args.seed]
        for source, name in zip(args.scenario, names)
    ]
    truths = [pipeline.ground_truth_map(scene) for scene in scenes]
    queries = [[sample_queries(gt, r.n_queries, r.seed, r.min_separation) for r in rs] for gt, rs in zip(truths, runs)]
    combos = parse_combos(args.combos.split(","), params.priority)
    rows = []
    for scene, gt, scene_runs, scene_queries in zip(scenes, truths, runs, queries):
        mapped = None
        for run_cfg, seed_queries in zip(scene_runs, scene_queries):
            if mapped is None or scene.noisy:
                mapped = pipeline.map_scene(dataclasses.replace(scene, rng_seed=run_cfg.seed), combos, params)
            result, maps = mapped
            report = pipeline.score_maps(maps.items(), gt, seed_queries, scene.name)
            write_map_artifacts(run_cfg.out_dir, result, gt, maps, report)
            rows += report.rows
            print(f"maps and report written to {run_cfg.out_dir}")

    labels = list(dict.fromkeys(row.combination for row in rows))
    cells = {}
    for label in labels:
        for name in names:
            cell = [row for row in rows if (row.combination, row.scenario) == (label, name)]
            solved = sum(row.n_queries - row.n_failed for row in cell)
            mean = sum(row.score for row in cell) / len(cell)
            cells[label, name] = f"{mean:.4f} {solved}/{sum(row.n_queries for row in cell)}"
    width = 2 + max(len(text) for text in [*names, *cells.values()])
    label_width = max(len(label) for label in labels)
    print(f"\nmean score_m (lower is better) and solved/queries over seeds {' '.join(map(str, args.seed))}")
    print(" " * label_width + "".join(f"{name:>{width}}" for name in names))
    for label in labels:
        print(f"{label:<{label_width}}" + "".join(f"{cells[label, name]:>{width}}" for name in names))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="travmap", description="traversability mapping from simulated human observation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="dump the simulated frame stream")
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_simulate)

    all_combos = ",".join(RunConfig.combos)

    p = sub.add_parser("build", help="build per-combination maps without scoring")
    _add_scenario_args(p)
    _add_pipeline_args(p)
    p.add_argument("--combos", default=all_combos, help="comma list, e.g. SfM+PfH,HO3")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("evaluate", help="score existing PGM maps against a ground-truth PGM")
    p.add_argument("--ground-truth", required=True, help="ground-truth PGM path")
    p.add_argument("--maps", nargs="+", required=True, help="candidate PGM paths")
    p.add_argument("--resolution", type=float, default=0.10)
    p.add_argument("--origin-x", type=float, default=0.0)
    p.add_argument("--origin-y", type=float, default=0.0)
    p.add_argument("--queries", type=int, default=RunConfig.n_queries)
    p.add_argument("--min-separation", type=float, default=RunConfig.min_separation)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--label", default="external", help="scenario label for the report")
    p.add_argument("--out", default=None, help="directory for report.csv (optional)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ablate", help="full ablation: maps plus report.csv, over one or more scenes and seeds")
    _add_scenario_args(p, several=True)
    _add_pipeline_args(p)
    p.add_argument("--combos", default=all_combos, help="comma list, e.g. SfM+PfH,HO3")
    p.add_argument("--queries", type=int, default=RunConfig.n_queries)
    p.add_argument("--min-separation", type=float, default=RunConfig.min_separation)
    p.set_defaults(func=_cmd_ablate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
