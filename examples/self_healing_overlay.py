#!/usr/bin/env python3
"""Self-healing overlay: survive far more than k-1 total failures.

k-connectivity tolerates k-1 *simultaneous* crashes.  The operational
trick is to treat that as a per-burst budget: after each burst, the
overlay controller repairs the topology back to a full-strength LHG
among the survivors.  This demo runs a crash campaign worth several
times the one-shot budget and shows

* the damaged topology never partitions (each burst is <= k-1),
* a flood launched *between* burst and repair still reaches everyone,
* each repair restores kappa = k at a modest edge cost.

Run:  python examples/self_healing_overlay.py
"""

import random

from repro.analysis.tables import render_table
from repro.flooding import ExperimentSpec, run_experiment
from repro.flooding.failures import crash_before_start
from repro.graphs.connectivity import node_connectivity
from repro.overlay import LHGOverlay, execute_repair

K = 3
START_MEMBERS = 30
BURSTS = 6


def main() -> int:
    overlay = LHGOverlay(k=K)
    for i in range(START_MEMBERS):
        overlay.join(f"peer-{i}")
    rng = random.Random(17)

    rows = []
    total = 0
    for burst in range(1, BURSTS + 1):
        victims = rng.sample(overlay.members, K - 1)
        total += len(victims)

        # 1. The failures strike: flood through the *damaged* topology.
        damaged = overlay.topology()
        source = next(m for m in overlay.members if m not in victims)
        result = run_experiment(ExperimentSpec(
            "flood", damaged, source, failures=crash_before_start(victims),
        )).result
        assert result.fully_covered, "k-1 crashes can never break flooding"

        # 2. The controller repairs.
        report = execute_repair(overlay, victims)
        rows.append(
            (
                burst,
                total,
                overlay.size,
                f"{result.covered}/{result.alive}",
                report.connectivity_before,
                report.connectivity_after,
                report.plan.total_edge_work,
            )
        )

    print(
        render_table(
            [
                "burst",
                "crashed so far",
                "members",
                "flood during damage",
                "kappa damaged",
                "kappa repaired",
                "repair edges",
            ],
            rows,
            title=f"Self-healing campaign: k={K}, bursts of {K - 1}",
        )
    )
    final_kappa = node_connectivity(overlay.topology())
    print(
        f"\nSurvived {total} total crashes (one-shot budget: {K - 1}) — "
        f"final topology is {final_kappa}-connected with "
        f"{overlay.size} members."
    )
    assert final_kappa == K
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
