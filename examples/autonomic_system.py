#!/usr/bin/env python3
"""End-to-end autonomic loop: detect crashes, repair the overlay, go on.

This demo chains every layer of the library into the full life of a
robust dissemination system:

1. **Operate** — peers flood updates over an LHG topology.
2. **Fail** — a burst of up to k-1 peers crashes mid-operation.
3. **Detect** — surviving neighbours notice via heartbeats (no oracle).
4. **Repair** — the controller removes exactly the *suspected* peers
   and restores a full-strength LHG among the survivors.
5. **Operate again** — flooding is back to guaranteed full coverage.

Run:  python examples/autonomic_system.py
"""

import random

from repro.flooding import ExperimentSpec, run_experiment
from repro.flooding.failures import crash_before_start
from repro.graphs.connectivity import node_connectivity
from repro.overlay import LHGOverlay, execute_repair

K = 3
MEMBERS = 24
ROUNDS = 4
CRASH_TIME = 10.0


def main() -> int:
    overlay = LHGOverlay(k=K)
    for i in range(MEMBERS):
        overlay.join(f"peer-{i}")
    rng = random.Random(23)

    for round_number in range(1, ROUNDS + 1):
        print(f"— round {round_number}: {overlay.size} peers —")
        topology = overlay.topology()

        # 1. normal operation
        source = overlay.members[0]
        healthy = run_experiment(ExperimentSpec("flood", topology, source)).result
        assert healthy.fully_covered
        print(
            f"  operate: flood covered {healthy.covered}/{healthy.n} "
            f"in t={healthy.completion_time}"
        )

        # 2. a burst of k-1 crashes
        victims = rng.sample(
            [m for m in overlay.members if m != source], K - 1
        )
        print(f"  fail   : {', '.join(map(str, victims))} crash at t={CRASH_TIME}")

        # 3. detection via heartbeats over the damaged topology
        detection = run_experiment(ExperimentSpec(
            "failure-detection", topology,
            params={
                "crashed": tuple(victims), "crash_time": CRASH_TIME, "period": 1.0,
                "timeout": 3.5,
            },
        )).metric("report")
        assert detection.complete and detection.accurate
        print(
            f"  detect : all neighbours suspected the crashed peers within "
            f"{detection.worst_detection_delay} time units, 0 false alarms"
        )

        # flooding still works while damaged (the k-1 guarantee)
        degraded = run_experiment(ExperimentSpec(
            "flood", topology, source, failures=crash_before_start(victims),
        )).result
        assert degraded.fully_covered
        print(
            f"  bridge : flood during damage still covered "
            f"{degraded.covered}/{degraded.alive} survivors"
        )

        # 4. repair exactly the suspected set
        report = execute_repair(overlay, victims)
        print(
            f"  repair : kappa {report.connectivity_before} -> "
            f"{report.connectivity_after} touching "
            f"{report.plan.total_edge_work} links"
        )
        assert report.connectivity_after == K

    final = node_connectivity(overlay.topology())
    print(
        f"\nAfter {ROUNDS * (K - 1)} total crashes the system is still a "
        f"{final}-connected LHG with {overlay.size} peers."
    )
    assert final == K
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
