#!/usr/bin/env python3
"""Capacity planning: from requirements to a validated deployment.

An operator workflow end to end:

1. requirements in, plan out — "250 services, survive 3 crashes,
   worst-case dissemination ≤ 12 hops";
2. build the planned topology and verify the paper's properties;
3. predict the broadcast bill and validate it against a simulated
   confirmed broadcast (flood + echo);
4. inspect the trade-offs: what would k = 2 or k = 6 have cost?

Run:  python examples/capacity_planning.py
"""

from repro.analysis.tables import render_table
from repro.core import build_lhg, check_lhg
from repro.core.planning import plan_topology
from repro.flooding import ExperimentSpec, run_experiment

MEMBERS = 250
CRASHES_TO_SURVIVE = 3
LATENCY_BUDGET_HOPS = 20


def main() -> int:
    # 1. plan
    plan = plan_topology(
        MEMBERS, CRASHES_TO_SURVIVE, latency_budget_hops=LATENCY_BUDGET_HOPS
    )
    print("plan     :", plan.summary())

    # 2. build + verify
    graph, certificate = build_lhg(plan.n, plan.k)
    report = check_lhg(graph, plan.k)
    assert report.is_lhg
    print("verified :", report.summary())

    # 3. validate the predicted message bill against a simulation
    source = graph.nodes()[0]
    flood = run_experiment(ExperimentSpec("flood", graph, source)).result
    assert flood.messages == plan.message_cost_per_broadcast
    echo = run_experiment(ExperimentSpec("echo", graph, source))
    assert echo.metric("completed") and echo.metric("aggregate") == plan.n
    print(
        f"simulated: flood {flood.messages} msgs (predicted "
        f"{plan.message_cost_per_broadcast}), covered {flood.covered}/{plan.n} "
        f"at t={flood.completion_time}; confirmed broadcast round trip "
        f"t={echo.metric('completed_at')}"
    )

    # 4. the k trade-off table
    rows = []
    for failures in (1, 2, 3, 5):
        alternative = plan_topology(MEMBERS, failures)
        rows.append(
            (
                failures,
                alternative.k,
                alternative.edges,
                alternative.expected_diameter,
                alternative.message_cost_per_broadcast,
                alternative.k_regular,
            )
        )
    print()
    print(
        render_table(
            [
                "crashes survived",
                "k",
                "links",
                "diameter",
                "msgs/broadcast",
                "k-regular",
            ],
            rows,
            title=f"Fault-tolerance trade-offs at n={MEMBERS}",
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
