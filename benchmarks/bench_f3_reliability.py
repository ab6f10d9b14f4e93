"""Experiment F3 — reliability under crashes: coverage vs failure count.

The fault-tolerance cliff: deterministic flooding on a k-connected LHG
covers **every** reachable node for any f ≤ k−1 crashes (a guarantee,
asserted over all seeds), keeps near-full coverage past the cliff
because random k-subsets rarely form a cut, and the fragile
spanning-tree baseline decays from the very first crash.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, repeat_runs, run_experiment
from repro.flooding.failures import random_crashes

N, K, SEEDS = 62, 4, 40


def test_f3_reliability(benchmark, report):
    graph, _ = build_lhg(N, K)
    source = graph.nodes()[0]

    def schedule_factory(crashes):
        def factory(seed):
            if crashes == 0:
                return None
            return random_crashes(graph, crashes, seed=seed, protect={source})

        return factory

    rows = []
    for crashes in range(0, 2 * K + 1):
        flood = repeat_runs(
            ExperimentSpec("flood", graph, source), schedule_factory(crashes), SEEDS
        )
        tree = repeat_runs(
            ExperimentSpec("treecast", graph, source), schedule_factory(crashes), SEEDS
        )
        rows.append(
            (
                crashes,
                round(flood.mean_delivery_ratio(), 4),
                round(flood.min_delivery_ratio(), 4),
                round(flood.full_coverage_fraction(), 4),
                round(tree.mean_delivery_ratio(), 4),
            )
        )
        if crashes <= K - 1:
            # the guarantee: k-1 crashes can never break coverage
            assert flood.min_delivery_ratio() == 1.0, crashes
        if crashes >= 1:
            assert tree.mean_delivery_ratio() < 1.0, crashes
    # graceful degradation beyond the cliff
    assert rows[-1][1] > 0.9

    one_schedule = random_crashes(graph, K - 1, seed=0, protect={source})
    spec = ExperimentSpec("flood", graph, source, failures=one_schedule)
    benchmark(lambda: run_experiment(spec).result)

    report(
        "f3_reliability",
        render_table(
            [
                "crashes",
                "flood mean",
                "flood min",
                "flood full-cov frac",
                "treecast mean",
            ],
            rows,
            title=f"F3: delivery ratio vs crashes — LHG(n={N}, k={K}), {SEEDS} seeds",
        ),
    )
