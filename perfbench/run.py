"""travmap benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {ablate,journeys,reanchor} --seed N --seconds S --trace {0,1}

The workload builds its inputs from ``--seed`` and runs one untimed warm-up
op (set-up, done three times; ``setup_s`` is the median), then runs ops in a
closed loop with one client for ``--seconds`` seconds and at least two passes
over its input cycle.  Every op's outputs are checked.  A host speed probe
between set-ups and between ops gives each time at a fixed reference host
speed as well (see hostspeed.py).  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics; with ``--trace 1`` ops alternate between
untraced and traced passes and the JSON holds the per-layer metrics.  Lines
before it report the same figures under the workload's own names, with units
and sample counts.  See perfbench/README.md.
"""

import time

_START = time.perf_counter()  # set-up time counts imports too

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import hostspeed  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUPS = 3  # set-ups per run; setup_s is their median
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RAW, NORM = 0, 1  # an op's (raw seconds, seconds at the reference host speed)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ablate", "journeys", "reanchor"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0 (travmap seeds numpy's generator with it)")
    return args


def import_travmap():
    """Import travmap from the checkout's src/, never from anywhere else."""
    if not (SRC / "travmap" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no travmap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import travmap

    if not pathlib.Path(travmap.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: travmap imported from {travmap.__file__}, not from {SRC}")


def tail(samples):
    """Highest whole percentile with at least 10 samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    rank = -(-pct * n // 100)  # nearest-rank: ceil(pct/100 * n)
    return pct, sorted(samples)[rank - 1]


def run_loop(workload, seconds, tracer, stopwatch):
    """Closed loop, one client, for ``seconds`` and at least two passes over the inputs.

    Returns (untraced ops by input, traced ops, attempted, failed, probe
    times), each op as (raw seconds, seconds at the reference host speed).
    The host speed probe runs between ops, outside their timed regions.
    With a tracer, whole passes over the input cycle alternate between
    untraced and traced, so both see the same inputs.
    """
    plain = {i: [] for i in range(workload.cycle)}
    traced = []
    attempted = failed = 0
    cycle = workload.cycle
    probes = [hostspeed.probe()]
    start = time.perf_counter()
    k = 0
    while k < 2 * cycle or time.perf_counter() - start < seconds:
        use_tracer = tracer if tracer is not None and (k // cycle) % 2 else None
        watch = stopwatch(use_tracer)
        attempted += 1
        try:
            workload.run_op(k, watch)
            ok = True
        except Exception:  # an op that raises is a failed op; the loop goes on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            ok = False
        probes.append(hostspeed.probe(hostspeed.PROBE_SHARE * (watch.seconds or 0.0)))
        if ok:
            op = (watch.seconds, hostspeed.normalise(watch.seconds, probes[-2], probes[-1]))
            (traced if use_tracer else plain[k % cycle]).append(op)
        k += 1
    return plain, traced, attempted, failed, probes


def summary(plain, which):
    """Figures of column ``which`` of the untraced ops, in seconds.

    Returns (median of all ops, mean over inputs of each input's median,
    mean over inputs of each input's mean, all ops).  The per-input figures
    weight every input alike, as the last pass may stop part-way.
    """
    ops = [op[which] for times in plain.values() for op in times]
    input_p50 = statistics.fmean(statistics.median(op[which] for op in times) for times in plain.values())
    mean = statistics.fmean(statistics.fmean(op[which] for op in times) for times in plain.values())
    return statistics.median(ops), input_p50, mean, ops


def set_up(name, seed, workdir, stopwatch):
    """Build the workload from its seed and run one untimed warm-up op.

    Repeated ``SETUPS`` times, with the host speed probe before the first
    set-up and after each.  Returns the last workload, the first probe and
    each set-up's (raw seconds, seconds at the reference host speed).  Every
    set-up must reach the same warm-up outcome, as the same seed gives the
    same inputs.
    """
    from workloads import WORKLOADS, CheckFailed

    times, firsts, workload = [], [], None
    first_probe = before = hostspeed.probe()
    for _ in range(SETUPS):
        workload = None  # let the previous set-up go before the next is built
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed, workdir)
        workload.run_op(0, stopwatch())  # lazy set-up and BLAS start-up land here
        seconds = time.perf_counter() - t0
        after = hostspeed.probe(hostspeed.PROBE_SHARE * seconds)
        times.append((seconds, hostspeed.normalise(seconds, before, after)))
        before = after
        firsts.append(workload.first)
    if any(f != firsts[0] for f in firsts):
        raise CheckFailed(f"set-ups at seed {seed} reached different warm-up outcomes")
    return workload, first_probe, times


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    import_travmap()
    from tracer import Stopwatch, Tracer

    imports_s = time.perf_counter() - _START
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload, first_probe, setups = set_up(args.workload, args.seed, workdir, Stopwatch)
        raw_setup_s = imports_s + statistics.median(raw for raw, _norm in setups)
        setup_s = hostspeed.normalise(imports_s, first_probe, first_probe) + statistics.median(
            norm for _raw, norm in setups
        )
        tracer = Tracer() if args.trace else None
        plain, traced, attempted, failed, probes = run_loop(workload, args.seconds, tracer, Stopwatch)
        info = workload.info()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    if not all(plain.values()) or (tracer and not traced):
        print(f"benchmark: {failed} of {attempted} ops failed; no figures to report", file=sys.stderr)
        return 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw, norm = summary(plain, RAW), summary(plain, NORM)
    n = len(raw[3])
    blas = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_VARS)
    lines = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"cycle={workload.cycle} cpus={os.cpu_count()} python={sys.version.split()[0]}",
        f"blas {blas}",
        *info,
    ]

    # The workload's own names for its end-to-end figures: name, value, unit, samples.
    # Each op timing is printed raw and, with the prefix norm_, at the reference
    # host speed; setup_s is at the reference host speed and raw_setup_s raw.
    named = [
        ("raw_setup_s", raw_setup_s, "s", SETUPS),
        ("setup_s", setup_s, "s", SETUPS),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
        ("error_rate", failed / attempted, "ratio", attempted),
        ("host.probe_ms.p50", 1000 * statistics.median(probes), "ms", len(probes)),
        ("host.probe_ms.min", 1000 * min(probes), "ms", len(probes)),
        ("host.probe_ms.max", 1000 * max(probes), "ms", len(probes)),
    ]
    for prefix, (p50, input_p50, mean, ops) in (("", raw), ("norm_", norm)):
        named += [
            (f"{prefix}op_ms", 1000 * input_p50, "ms", n),
            (f"{prefix}op_ms.p50", 1000 * p50, "ms", n),
            (f"{prefix}ops_per_s", 1.0 / mean, "1/s", n),
        ]
        name, unit, scale = workload.latency
        if workload.per_pass:
            named.append((f"{prefix}{name}.p50", scale * workload.cycle * input_p50, unit, n))
        else:
            named.append((f"{prefix}{name}.p50", scale * p50, unit, n))
            t = tail(ops)
            if t is not None:
                named.append((f"{prefix}{name}.tail", scale * t[1], f"{unit} at p{t[0]}", n))
        if workload.throughput is not None:
            name, per_op = workload.throughput
            named.append((f"{prefix}{name}", per_op / mean, "1/s", n))
    lines += [f"metric {name} = {value:.6g} {unit} (n={n})" for name, value, unit, n in named]

    if args.trace:
        overhead_pct = 100.0 * (statistics.median(op[NORM] for op in traced) / norm[0] - 1.0)
        metrics = tracer.report(overhead_pct)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "norm_op_ms": (1000 * norm[1], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    declared = declared_metrics(args.trace)
    produced = {name: unit for name, (_value, unit) in metrics.items()}
    if produced != declared:
        raise SystemExit(f"benchmark: metrics {produced} do not match BENCHMARK.json {declared}")

    for line in lines:
        print("# " + line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
