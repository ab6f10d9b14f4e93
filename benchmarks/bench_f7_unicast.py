"""Experiment F7 — unicast under failures: one path vs k disjoint paths.

Point-to-point delivery over the same fault-tolerant topology.  A
single source-routed path dies with any crash it contains; launching
the message along the construction's k internally node-disjoint paths
(the Menger witness) makes delivery **guaranteed** for any f ≤ k−1
crashes at ~k× the message cost.  The table sweeps the crash count and
reports delivery rate and message bill for both strategies.
"""

from __future__ import annotations

import random

from repro.analysis.tables import render_table
from repro.core.existence import build_lhg
from repro.core.routing import menger_witness, tree_route
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.failures import random_crashes

N, K, SEEDS, PAIRS = 46, 4, 25, 6


def test_f7_unicast(benchmark, report):
    graph, cert = build_lhg(N, K)
    rng = random.Random(7)
    nodes = graph.nodes()
    endpoint_pairs = [tuple(rng.sample(nodes, 2)) for _ in range(PAIRS)]
    witnesses = {
        (s, t): menger_witness(graph, cert, s, t) for s, t in endpoint_pairs
    }
    routes = {(s, t): tree_route(cert, s, t) for s, t in endpoint_pairs}

    rows = []
    for crashes in range(0, K + 1):
        single_ok = 0
        redundant_ok = 0
        single_msgs = 0
        redundant_msgs = 0
        trials = 0
        for (s, t), paths in witnesses.items():
            for seed in range(SEEDS):
                schedule = (
                    random_crashes(graph, crashes, seed=seed, protect={s, t})
                    if crashes
                    else None
                )
                single = run_experiment(ExperimentSpec(
                    "unicast", graph, failures=schedule,
                    params={"path": routes[(s, t)]},
                ))
                single_ok += single.metric("delivered_at") is not None
                single_msgs += single.metric("hops")
                redundant = run_experiment(ExperimentSpec(
                    "redundant-unicast", graph, failures=schedule,
                    params={"paths": paths},
                ))
                redundant_ok += redundant.metric("delivered_at") is not None
                redundant_msgs += redundant.metric("messages")
                trials += 1
        rows.append(
            (
                crashes,
                round(single_ok / trials, 3),
                round(redundant_ok / trials, 3),
                round(single_msgs / trials, 1),
                round(redundant_msgs / trials, 1),
            )
        )
        if crashes <= K - 1:
            # the structural guarantee: k disjoint paths beat k-1 crashes
            assert redundant_ok == trials, crashes
    # single-path delivery decays once crashes appear
    assert rows[-1][1] < 1.0
    # redundancy costs roughly k single paths
    assert rows[0][4] <= K * rows[0][3] * 2.5

    s, t = endpoint_pairs[0]
    spec = ExperimentSpec(
        "redundant-unicast", graph, params={"paths": witnesses[(s, t)]}
    )
    benchmark(lambda: run_experiment(spec))

    report(
        "f7_unicast",
        render_table(
            [
                "crashes",
                "single-path delivery",
                "k-path delivery",
                "single msgs",
                "k-path msgs",
            ],
            rows,
            title=(
                f"F7: unicast delivery vs crashes — LHG(n={N}, k={K}), "
                f"{PAIRS} pairs x {SEEDS} seeds"
            ),
        ),
    )
