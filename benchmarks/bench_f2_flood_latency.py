"""Experiment F2 — flooding latency: rounds to full coverage vs n.

With unit link latency, simulated completion time equals the source's
eccentricity, so this is the diameter experiment (F1) re-measured at the
protocol level: LHG floods complete in O(log n) rounds, Harary floods in
Θ(n/k) rounds.  Worst-case source (max eccentricity) reported.
"""

from __future__ import annotations

import math

from repro.analysis.stats import growth_exponent, is_roughly_logarithmic
from repro.analysis.sweep import geometric_sizes
from repro.analysis.tables import render_series
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.graphs.generators.harary import harary_graph

K = 4
MAX_N = 1024
SOURCE_SAMPLES = 4


def _worst_latency(graph) -> float:
    nodes = graph.nodes()
    picks = nodes[:: max(1, len(nodes) // SOURCE_SAMPLES)][:SOURCE_SAMPLES]
    worst = 0.0
    for source in picks:
        result = run_experiment(ExperimentSpec("flood", graph, source)).result
        assert result.fully_covered
        worst = max(worst, result.completion_time)
    return worst


def test_f2_flood_latency(benchmark, report):
    rows = []
    for n in geometric_sizes(2 * K, MAX_N):
        lhg, _ = build_lhg(n, K)
        harary = harary_graph(K, n)
        rows.append((n, _worst_latency(harary), _worst_latency(lhg)))

    timed, _ = build_lhg(MAX_N, K)
    source = timed.nodes()[0]
    benchmark(lambda: run_experiment(ExperimentSpec("flood", timed, source)).result)

    ns = [r[0] for r in rows]
    harary_latency = [r[1] for r in rows]
    lhg_latency = [r[2] for r in rows]
    tail = slice(len(ns) // 2, None)
    assert growth_exponent(ns[tail], harary_latency[tail]) > 0.7
    assert is_roughly_logarithmic(ns, lhg_latency)
    for n, latency in zip(ns, lhg_latency):
        assert latency <= 4 * math.log2(n) + 4
    assert lhg_latency[-1] < harary_latency[-1] / 8

    report(
        "f2_flood_latency",
        render_series(
            "n",
            [f"harary(k={K}) rounds", f"lhg(k={K}) rounds"],
            rows,
            title=f"F2: flooding completion time vs n (k={K}, unit latency)",
        ),
    )
