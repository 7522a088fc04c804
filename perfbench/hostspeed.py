"""Host speed probe: a fixed pure-Python loop, timed between ops.

The machine the benchmark was tuned on is a shared virtual machine whose
CPUs change speed with the load of its neighbours, by up to 1.8x, in phases
of tens of seconds.  A 20–40 s run can fall wholly inside a slow or a fast
phase, so raw op times spread by 12–50 % (interquartile range over median)
from run to run of the same code.

The probe's time moves with the host much as travmap's op times do.
Dividing an op's time by the probe's time around it, and multiplying by
``REF_PROBE_S``, gives the op's time at one fixed host speed: the speed at
which the probe takes ``REF_PROBE_S``.  A change to travmap moves the op time
and not the probe, so it moves the normalised time by the same factor.
perfbench/README.md gives the spreads measured with and without it.
"""

from __future__ import annotations

import statistics
import time

#: The probe's time at the reference host speed; about its time on a fast
#: phase of the 2-CPU machine the benchmark was tuned on.
REF_PROBE_S = 0.0025

#: A probe lasts at least this share of the op before it, so that it samples
#: the host over a span that grows with the op it normalises.
PROBE_SHARE = 0.02

_ROUNDS = 20_000
_MIN_LOOPS = 3


def _loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(_ROUNDS):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - t0


def probe(span: float = 0.0) -> float:
    """Mean seconds of the fixed loop, run at least three times and for ``span`` seconds."""
    times = []
    while len(times) < _MIN_LOOPS or sum(times) < span:
        times.append(_loop())
    return statistics.fmean(times)


def normalise(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at the reference speed."""
    return seconds * REF_PROBE_S / (0.5 * (before + after))
