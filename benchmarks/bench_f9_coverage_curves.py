"""Experiment F9 — coverage-over-time curves: exponential vs linear spread.

The completion-time tables (F2) hide the *shape* of dissemination.  On
a log-diameter LHG the covered set multiplies by ~(k−1) each hop
(exponential phase, then saturation); on the Harary circulant it grows
by a constant ~2⌊k/2⌋ nodes per hop (linear).  This experiment renders
both curves at a fixed n and asserts the shape: the LHG reaches 50%
coverage in a small constant number of hops while the circulant needs
Θ(n/k) hops.
"""

from __future__ import annotations

import math

from repro.analysis.curves import ascii_curves, coverage_curve, time_to_fraction
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.graphs.generators.harary import harary_graph

N, K = 254, 4


def test_f9_coverage_curves(benchmark, report):
    lhg, _ = build_lhg(N, K)
    harary = harary_graph(K, N)
    lhg_run = run_experiment(ExperimentSpec("flood", lhg, lhg.nodes()[0])).result
    harary_run = run_experiment(ExperimentSpec("flood", harary, 0)).result
    assert lhg_run.fully_covered and harary_run.fully_covered

    lhg_half = time_to_fraction(lhg_run, 0.5)
    harary_half = time_to_fraction(harary_run, 0.5)
    # exponential spread: 50% within ~log_{k-1}(n) hops
    assert lhg_half <= 2 * math.log(N, K - 1) + 2
    # linear spread: 50% needs on the order of n/(4*floor(k/2)) hops
    assert harary_half >= N / (8 * (K // 2))
    assert harary_half / lhg_half > 4

    plot = ascii_curves(
        [
            ("lhg", coverage_curve(lhg_run, buckets=40)),
            ("harary", coverage_curve(harary_run, buckets=40)),
        ],
        width=64,
        height=14,
    )
    summary = (
        f"F9: coverage vs time, n={N}, k={K}\n"
        f"time to 50%: lhg={lhg_half:g}, harary={harary_half:g}; "
        f"time to 100%: lhg={lhg_run.completion_time:g}, "
        f"harary={harary_run.completion_time:g}\n\n" + plot
    )

    spec = ExperimentSpec("flood", lhg, lhg.nodes()[0])
    benchmark(lambda: coverage_curve(run_experiment(spec).result, buckets=40))

    report("f9_coverage_curves", summary)
