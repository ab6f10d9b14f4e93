"""Experiment A7 — buying back determinism on lossy links.

Plain flooding's delivery degrades once per-message loss exceeds what
the k-fold path redundancy absorbs (A5).  Per-link ACK/retransmission
restores guaranteed delivery at a quantified overhead: with loss p and
r retries a link fails with probability p^(r+1), so a constant retry
budget holds 100% coverage deep into loss regimes that break plain
flooding — at a message bill that grows like 2/(1−p) per link (data
copies plus ACKs, both lossy).
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, repeat_runs, run_experiment

N, K, SEEDS = 40, 4, 15
LOSS_RATES = (0.0, 0.2, 0.4, 0.6)


def test_a7_reliable_flooding(benchmark, report):
    graph, _ = build_lhg(N, K)
    source = graph.nodes()[0]

    rows = []
    for loss in LOSS_RATES:
        plain = repeat_runs(
            ExperimentSpec("flood", graph, source, loss_rate=loss), None, SEEDS
        )
        reliable = repeat_runs(
            ExperimentSpec("reliable-flood", graph, source, loss_rate=loss), None, SEEDS
        )
        rows.append(
            (
                loss,
                round(plain.mean_delivery_ratio(), 3),
                round(reliable.mean_delivery_ratio(), 3),
                round(plain.mean_messages()),
                round(reliable.mean_messages()),
            )
        )
        # the guarantee reliable flooding buys back
        assert reliable.mean_delivery_ratio() == 1.0, loss

    plain_series = [r[1] for r in rows]
    overhead = [r[4] / max(r[3], 1) for r in rows]
    # plain flooding eventually degrades; the overhead ratio grows with p
    assert plain_series[-1] < 0.9
    assert overhead[-1] > overhead[0]

    benchmark(
        lambda: run_experiment(
            ExperimentSpec("reliable-flood", graph, source, loss_rate=0.4, loss_seed=1)
        ).result
    )

    report(
        "a7_reliable_flooding",
        render_table(
            [
                "loss rate",
                "plain delivery",
                "reliable delivery",
                "plain msgs",
                "reliable msgs",
            ],
            rows,
            title=(
                f"A7: plain vs ACK/retransmit flooding — LHG(n={N}, k={K}), "
                f"{SEEDS} seeds"
            ),
        ),
    )
