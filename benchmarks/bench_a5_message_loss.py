"""Experiment A5 — message loss: path redundancy absorbs lossy links.

Crash-stop failures are not the only hazard; real links drop messages.
Flooding on a k-connected graph is naturally loss-tolerant — each node
would receive the payload on up to k independent links — while the
spanning-tree baseline has exactly one delivery attempt per node.  The
table sweeps the per-message loss probability and reports mean delivery
for flooding on the LHG vs tree-cast, plus gossip for reference.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, repeat_runs, run_experiment

N, K, SEEDS = 62, 4, 20
LOSS_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)


def test_a5_message_loss(benchmark, report):
    graph, _ = build_lhg(N, K)
    source = graph.nodes()[0]

    rows = []
    for loss in LOSS_RATES:
        flood = repeat_runs(
            ExperimentSpec("flood", graph, source, loss_rate=loss), None, SEEDS
        )
        tree = repeat_runs(
            ExperimentSpec("treecast", graph, source, loss_rate=loss), None, SEEDS
        )
        gossip = repeat_runs(
            ExperimentSpec(
                "gossip", graph, source, loss_rate=loss,
                params={"fanout": 2, "rounds": 14},
            ),
            None,
            SEEDS,
        )
        rows.append(
            (
                loss,
                round(flood.mean_delivery_ratio(), 3),
                round(tree.mean_delivery_ratio(), 3),
                round(gossip.mean_delivery_ratio(), 3),
            )
        )

    flood_series = [r[1] for r in rows]
    tree_series = [r[2] for r in rows]
    # flooding absorbs moderate loss almost completely...
    assert flood_series[2] > 0.97  # 10% loss
    # ...while the single-attempt tree decays roughly like (1-p)^depth
    assert tree_series[2] < 0.8
    # at every non-zero loss rate flooding dominates tree-cast
    for flood_ratio, tree_ratio in zip(flood_series[1:], tree_series[1:]):
        assert flood_ratio > tree_ratio

    spec = ExperimentSpec("flood", graph, source, loss_rate=0.2, loss_seed=1)
    benchmark(lambda: run_experiment(spec).result)

    report(
        "a5_message_loss",
        render_table(
            ["loss rate", "flood delivery", "treecast delivery", "gossip delivery"],
            rows,
            title=f"A5: delivery ratio vs per-message loss — LHG(n={N}, k={K}), {SEEDS} seeds",
        ),
    )
