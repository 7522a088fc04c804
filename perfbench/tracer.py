"""Out-of-program tracing for the benchmark.

While a traced op runs, travmap's public functions are replaced by wrappers
under the name their caller looks them up by (``travmap.pipeline.simulate_sequence``,
``travmap.quality.plan_path``, ``TraversabilityMap.mark_band``, ...).  Each
wrapper records one span: its call count and its self time, which is the
span's duration minus the time its child spans covered.  High-rate counts
(frames, evidence records, pass-between pairs) are read from the objects the
wrapped functions return, never by wrapping per-feature helpers.

Nothing is patched outside a traced op, and untraced ops run the program as
users run it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from travmap import cli, evidence, gridmap, mot, pipeline, posegraph, quality

#: travmap's modules, each one layer; every span key starts with one of these.
LAYERS = ("scenesim", "pipeline", "mot", "evidence", "posegraph", "gridmap", "quality", "cli")

#: (owner, attribute, span key, hook method): every public function a traced op
#: wraps, under the name its caller looks it up by.  A hook reads counts from
#: the call's arguments and result.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "run_ablation", "pipeline.run_ablation", None),
    (pipeline, "run_pipeline", "pipeline.run_pipeline", "_on_pipeline_result"),
    (pipeline, "build_combo_map", "pipeline.build_combo_map", None),
    (pipeline, "simulate_sequence", "scenesim.simulate_sequence", "_on_frames"),
    (pipeline, "ground_truth_map", "scenesim.ground_truth_map", None),
    (mot, "step", "mot.step", None),
    (pipeline, "rebuild_map", "evidence.rebuild_map", "_on_rebuild"),
    (posegraph.PoseGraph, "optimize", "posegraph.optimize", "_on_event"),
    (posegraph.PoseGraph, "chi2", "posegraph.chi2", None),
    (gridmap.TraversabilityMap, "mark_band", "gridmap.mark_band", None),
    (evidence, "fuse", "gridmap.fuse", None),
    (pipeline, "export_pgm", "gridmap.export_pgm", "_on_pgm"),
    (quality, "plan_path", "quality.plan_path", "_on_plan"),
    (quality, "sample_queries", "quality.sample_queries", "_on_queries"),
    (pipeline, "sample_queries", "quality.sample_queries", "_on_queries"),
    (quality, "evaluate_map", "quality.evaluate_map", None),
    (pipeline, "evaluate_map", "quality.evaluate_map", None),
)

#: Span keys in report order.
SPANS = tuple(dict.fromkeys(key for _owner, _attr, key, _hook in TARGETS))


def _arg(args, kwargs, index, name, default=None):
    """Argument ``name`` of a call, passed by position ``index`` or by keyword."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _reached_confirmation(track) -> bool:
    """True when the track was matched in CONFIRM_HITS consecutive frames."""
    run = 0
    prev = None
    for point in track.history:
        run = run + 1 if prev is not None and point.frame_index == prev + 1 else 1
        if run >= mot.CONFIRM_HITS:
            return True
        prev = point.frame_index
    return False


class _Frame:
    __slots__ = ("key", "covered", "args", "kwargs")

    def __init__(self, key, args, kwargs):
        self.key = key
        self.covered = 0.0  # seconds of this span spent inside child spans
        self.args = args
        self.kwargs = kwargs


class Tracer:
    """Span and count totals over every traced op of one run."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self.op_seconds = 0.0
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, key, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, key, hook and getattr(self, hook)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _wrap(self, fn, key, hook):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(key, args, kwargs)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                calls[key] += 1
                self_s[key] += t1 - t0 - frame.covered
            if hook is not None:
                hook(args, kwargs, result, parent)
            if parent is not None:
                # The hook's bookkeeping is covered too, so it lands in no layer.
                parent.covered += clock() - t0
            return result

        return traced

    # -- counts read from returned objects -----------------------------------

    def _on_frames(self, args, kwargs, result, parent):
        frames, _truth = result
        self.counts["scenesim.frames"] += len(frames)
        self.counts["scenesim.feature_obs"] += sum(len(f.features) for f in frames)

    def _on_pipeline_result(self, args, kwargs, result, parent):
        c = self.counts
        keep = result.keep_mask
        c["pipeline.frames_kept"] += sum(keep)
        c["mot.tracks_confirmed"] += sum(1 for t in result.tracks if _reached_confirmation(t))
        for rec in result.store.records:
            c[f"evidence.records.{_layer_of(rec)}"] += 1
        c["evidence.occlusion_candidates"] += len(result.occlusion_diags)
        c["evidence.pass_pairs"] += len(result.pair_diags)
        # Pass-between inference runs on a kept frame whose predecessor was kept,
        # once per confirmed human with a depth estimate (a position diagnostic).
        human_frames = {d.frame_index for d in result.position_diags}
        c["evidence.candidate_frames"] += sum(1 for fi in human_frames if fi > 0 and keep[fi] and keep[fi - 1])

    def _on_rebuild(self, args, kwargs, result, parent):
        store = _arg(args, kwargs, 0, "store")
        enabled = set(_arg(args, kwargs, 4, "enabled", evidence.ALL_LAYERS))
        self.counts["evidence.records_rebuilt"] += sum(1 for rec in store.records if _layer_of(rec) in enabled)

    def _on_event(self, args, kwargs, result, parent):
        self.counts["posegraph.iterations"] += result.iterations

    def _on_pgm(self, args, kwargs, result, parent):
        self.counts["gridmap.export_pgm.bytes"] += len(result)

    def _on_plan(self, args, kwargs, result, parent):
        if result is None:
            self.counts["quality.plan_path.unsolved"] += 1
        if parent is None:
            return
        if parent.key == "quality.sample_queries":
            self.counts["quality.sample_plans"] += 1
        elif parent.key == "quality.evaluate_map":
            grid = _arg(args, kwargs, 0, "m")
            if grid is _arg(parent.args, parent.kwargs, 1, "ground_truth"):
                self.counts["quality.oracle_plans"] += 1

    def _on_queries(self, args, kwargs, result, parent):
        self.counts["quality.queries"] += len(result)

    # -- report --------------------------------------------------------------

    def report(self, overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); totals are per traced op."""
        n = self.ops
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for key in SPANS:
            out[f"{key}.calls"] = (self.calls[key] / n, "count")
            out[f"{key}.self_s"] = (self.self_s[key] / n, "s")
        for name in (
            "scenesim.frames",
            "scenesim.feature_obs",
            "pipeline.frames_kept",
            "mot.tracks_confirmed",
            "evidence.records.sfm",
            "evidence.records.pfh",
            "evidence.records.ho3",
            "evidence.occlusion_candidates",
            "evidence.pass_pairs",
            "posegraph.iterations",
            "gridmap.export_pgm.bytes",
        ):
            out[name] = (c[name] / n, "B" if name.endswith(".bytes") else "count")
        rebuilds = self.calls["evidence.rebuild_map"]
        trial_steps = self.calls["posegraph.chi2"] - self.calls["posegraph.optimize"]
        out["evidence.records_per_rebuild"] = (ratio(c["evidence.records_rebuilt"], rebuilds), "count")
        out["evidence.pair_yield"] = (ratio(c["evidence.pass_pairs"], c["evidence.candidate_frames"]), "ratio")
        out["posegraph.accept_ratio"] = (ratio(c["posegraph.iterations"], trial_steps), "ratio")
        out["quality.plan_path.unsolved_ratio"] = (
            ratio(c["quality.plan_path.unsolved"], self.calls["quality.plan_path"]),
            "ratio",
        )
        out["quality.sample_accept_ratio"] = (ratio(c["quality.queries"], c["quality.sample_plans"]), "ratio")
        out["quality.oracle_plans_per_query"] = (ratio(c["quality.oracle_plans"], c["quality.queries"]), "count")
        for layer in LAYERS:
            busy = sum(self.self_s[key] for key in SPANS if key.startswith(layer + "."))
            out[f"{layer}.share"] = (ratio(busy, self.op_seconds), "ratio")
        out["trace.ops"] = (float(n), "count")
        out["trace.overhead_pct"] = (overhead_pct, "%")
        return out


def _layer_of(record) -> str:
    if isinstance(record, evidence.SfmEvidence):
        return evidence.SFM_LAYER
    if isinstance(record, evidence.PfhEvidence):
        return evidence.PFH_LAYER
    return evidence.HO3_LAYER


class Stopwatch:
    """Times the one region of an op that calls into travmap.

    With a tracer, its wrappers are installed just before the clock starts
    and removed just after it stops, so set-up and checks are never traced.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.seconds: float | None = None

    def __enter__(self):
        if self.seconds is not None:
            raise RuntimeError("an op has exactly one timed region")
        if self.tracer is not None:
            self.tracer.install()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer.ops += 1
            self.tracer.op_seconds += self.seconds
        return False
