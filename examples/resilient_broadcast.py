#!/usr/bin/env python3
"""Resilient broadcast: flooding on an LHG vs tree-cast and gossip.

The scenario from the paper's introduction: disseminate a message to a
crash-prone group.  We inject f random crashes (f = 0 … k+1) and compare

* deterministic flooding on a k-connected LHG (this paper),
* broadcast over a precomputed spanning tree (cheap, fragile),
* push gossip (probabilistic, message-hungry).

Flooding holds 100% coverage for every f ≤ k−1 — guaranteed by
k-connectivity — while tree-cast degrades at the very first crash and
gossip pays multiples of the message bill for probabilistic coverage.

Run:  python examples/resilient_broadcast.py
"""

from repro import build_lhg
from repro.analysis.tables import render_table
from repro.flooding import ExperimentSpec, random_crashes, repeat_runs

N, K, SEEDS = 60, 4, 25


def main() -> int:
    graph, _ = build_lhg(N, K)
    source = graph.nodes()[0]

    rows = []
    for crashes in range(0, K + 2):
        def schedule(seed: int, f: int = crashes):
            if f == 0:
                return None
            return random_crashes(graph, f, seed=seed, protect={source})

        flood = repeat_runs(ExperimentSpec("flood", graph, source), schedule, SEEDS)
        tree = repeat_runs(ExperimentSpec("treecast", graph, source), schedule, SEEDS)
        gossip = repeat_runs(
            ExperimentSpec("gossip", graph, source, params={"fanout": 2, "rounds": 14}),
            schedule,
            SEEDS,
        )
        rows.append(
            (
                crashes,
                f"{flood.mean_delivery_ratio():.3f}",
                f"{tree.mean_delivery_ratio():.3f}",
                f"{gossip.mean_delivery_ratio():.3f}",
                round(flood.mean_messages()),
                round(gossip.mean_messages()),
            )
        )

    print(
        render_table(
            [
                "crashes",
                "flood coverage",
                "treecast coverage",
                "gossip coverage",
                "flood msgs",
                "gossip msgs",
            ],
            rows,
            title=f"Broadcast under failures — LHG(n={N}, k={K}), {SEEDS} seeds",
        )
    )
    print(
        f"\nGuarantee: with at most k-1 = {K - 1} crashes the LHG stays "
        f"connected, so flooding coverage is exactly 1.0 — not a statistic."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
