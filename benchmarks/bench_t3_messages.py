"""Experiment T3 — message overhead: flooding vs gossip vs tree-cast.

Flooding on a link-minimal graph sends exactly 2m − (n − 1) messages
(every covered non-source node forwards on deg−1 links, the source on
deg links).  On a k-regular LHG that is ≈ kn.  Gossip needs a multiple
of that for probabilistic coverage; tree-cast sends the bare minimum
n − 1 but is fragile (see F3).  The table fixes the triangle.
"""

from __future__ import annotations

from repro.analysis.tables import render_table
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, run_experiment

SIZES = (20, 40, 80, 160)
K = 4
GOSSIP_FANOUT, GOSSIP_ROUNDS = 2, 14


def test_t3_message_overhead(benchmark, report):
    rows = []
    for n in SIZES:
        graph, _ = build_lhg(n, K)
        source = graph.nodes()[0]
        m = graph.number_of_edges()
        flood = run_experiment(ExperimentSpec("flood", graph, source)).result
        gossip = run_experiment(ExperimentSpec(
            "gossip", graph, source, seed=1,
            params={"fanout": GOSSIP_FANOUT, "rounds": GOSSIP_ROUNDS},
        )).result
        tree = run_experiment(ExperimentSpec("treecast", graph, source)).result
        rows.append(
            (
                n,
                m,
                flood.messages,
                2 * m - (n - 1),
                gossip.messages,
                round(gossip.delivery_ratio, 3),
                tree.messages,
            )
        )
        # exact closed form for deterministic flooding
        assert flood.messages == 2 * m - (n - 1)
        assert tree.messages == n - 1
        assert gossip.messages > 2 * flood.messages

    graph, _ = build_lhg(SIZES[-1], K)
    source = graph.nodes()[0]
    benchmark(
        lambda: run_experiment(ExperimentSpec(
            "gossip", graph, source, seed=1,
            params={"fanout": GOSSIP_FANOUT, "rounds": GOSSIP_ROUNDS},
        )).result
    )

    report(
        "t3_messages",
        render_table(
            [
                "n",
                "edges",
                "flood msgs",
                "2m-(n-1)",
                "gossip msgs",
                "gossip coverage",
                "treecast msgs",
            ],
            rows,
            title=f"T3: message cost per full broadcast (k={K})",
        ),
    )
