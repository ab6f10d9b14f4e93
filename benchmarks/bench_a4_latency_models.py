"""Experiment A4 — latency-model sensitivity of the flooding advantage.

The hop-count results (F1/F2) use unit latencies.  Real links are
heterogeneous, so this experiment re-runs the Harary-vs-LHG flooding
comparison under uniform [0.5, 1.5] and exponential (base 0.1, mean 1)
per-message latencies.  Shape assertion: the LHG's advantage (completion
time ratio) survives every latency model — randomising link delays does
not rescue a linear-diameter topology.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.network import (
    ConstantLatency,
    ExponentialLatency,
    UniformLatency,
)
from repro.graphs.generators.harary import harary_graph

K = 4
SIZES = (64, 256, 512)
SEEDS = 5


def _mean_completion(graph, model_factory) -> float:
    source = graph.nodes()[0]
    total = 0.0
    for seed in range(SEEDS):
        result = run_experiment(
            ExperimentSpec("flood", graph, source, latency=model_factory(seed))
        ).result
        assert result.fully_covered
        total += result.completion_time
    return total / SEEDS


def test_a4_latency_models(benchmark, report):
    models = {
        "unit": lambda seed: ConstantLatency(1.0),
        "uniform": lambda seed: UniformLatency(0.5, 1.5, seed=seed),
        "exponential": lambda seed: ExponentialLatency(0.1, 1.0, seed=seed),
    }
    rows = []
    for n in SIZES:
        lhg, _ = build_lhg(n, K)
        harary = harary_graph(K, n)
        for name, factory in models.items():
            lhg_time = _mean_completion(lhg, factory)
            harary_time = _mean_completion(harary, factory)
            ratio = harary_time / lhg_time
            rows.append(
                (n, name, round(harary_time, 2), round(lhg_time, 2), round(ratio, 2))
            )
            if n >= 256:
                # the advantage survives every latency model
                assert ratio > 4, (n, name)

    lhg, _ = build_lhg(SIZES[0], K)
    source = lhg.nodes()[0]
    benchmark(
        lambda: run_experiment(ExperimentSpec(
            "flood", lhg, source, latency=ExponentialLatency(0.1, 1.0, seed=0),
        )).result
    )

    report(
        "a4_latency_models",
        render_table(
            ["n", "latency model", "harary time", "lhg time", "ratio"],
            rows,
            title=f"A4: flooding completion time per latency model (k={K}, {SEEDS} seeds)",
        ),
    )
