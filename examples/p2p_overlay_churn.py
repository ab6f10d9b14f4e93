#!/usr/bin/env python3
"""Peer-to-peer overlay under churn: the paper's "arbitrary n" motivation.

Peers join and leave continuously; the overlay controller keeps the
topology an LHG for the current (n, k) at every instant.  We replay a
seeded churn trace and report

* the per-event edge churn (maintenance cost),
* periodic verification that the live topology is still k-connected,
* a flood through the post-churn topology.

Run:  python examples/p2p_overlay_churn.py
"""

from repro.analysis.tables import render_table
from repro.flooding import ExperimentSpec, run_experiment
from repro.graphs.connectivity import node_connectivity
from repro.overlay import LHGOverlay, churn_summary, generate_trace

K = 3
TARGET_POPULATION = 24
CHURN_EVENTS = 60
VERIFY_EVERY = 15


def main() -> int:
    trace = generate_trace(
        CHURN_EVENTS, TARGET_POPULATION, K, seed=7, join_bias=0.5
    )
    overlay = LHGOverlay(k=K)

    checkpoints = []
    for index, event in enumerate(trace):
        if event.kind == "join":
            overlay.join(event.member)
        else:
            overlay.leave(event.member)
        if (index + 1) % VERIFY_EVERY == 0 and overlay.in_lhg_regime():
            topology = overlay.topology()
            checkpoints.append(
                (
                    index + 1,
                    overlay.size,
                    topology.number_of_edges(),
                    node_connectivity(topology),
                )
            )

    print(
        render_table(
            ["event #", "peers", "edges", "kappa"],
            checkpoints,
            title=f"Overlay checkpoints (k={K}) — connectivity never drops below k",
        )
    )
    for _, _, _, kappa in checkpoints:
        assert kappa >= K, "the overlay invariant was violated"

    mean, p95, worst = churn_summary(overlay.history)
    print(
        f"\nMaintenance cost over {len(overlay.history)} events: "
        f"mean {mean:.1f} edge changes/event, p95 {p95:.0f}, worst {worst}"
    )

    topology = overlay.topology()
    source = overlay.members[0]
    result = run_experiment(ExperimentSpec("flood", topology, source)).result
    print(
        f"Flood through the final overlay ({overlay.size} peers): "
        f"covered {result.covered}/{result.n} at t={result.completion_time} "
        f"with {result.messages} messages"
    )
    assert result.fully_covered
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
