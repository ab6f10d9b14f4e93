#!/usr/bin/env python3
"""Quickstart: build an LHG, verify the paper's properties, flood it.

Run:  python examples/quickstart.py [n] [k]
"""

import sys

from repro import ExperimentSpec, build_lhg, check_lhg, harary_graph, run_experiment
from repro.graphs.traversal import diameter


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    k = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    # 1. Build: pick the best construction rule for the pair automatically.
    graph, certificate = build_lhg(n, k)
    print(f"Built {graph.name} using the {certificate.rule!r} rule")
    print(f"  nodes      : {graph.number_of_nodes()}")
    print(f"  edges      : {graph.number_of_edges()}")
    print(f"  tree height: {certificate.height()}")

    # 2. Verify Properties 1-5 of the LHG definition.
    report = check_lhg(graph, k)
    print(f"  verified   : {report.summary()}")
    assert report.is_lhg, "the construction must satisfy Properties 1-4"

    # 3. Compare against the classic Harary graph H(k, n): same fault
    #    tolerance and edge count, linear instead of logarithmic diameter.
    harary = harary_graph(k, n)
    print(
        f"  diameter   : LHG={report.diameter} vs Harary={diameter(harary)} "
        f"(both have ~{harary.number_of_edges()} edges)"
    )

    # 4. Flood it: every node is covered in diameter-many unit-latency hops.
    source = graph.nodes()[0]
    result = run_experiment(ExperimentSpec("flood", graph, source)).result
    print(
        f"  flooding   : covered {result.covered}/{result.n} nodes in "
        f"t={result.completion_time} using {result.messages} messages"
    )
    assert result.fully_covered
    return 0


if __name__ == "__main__":
    sys.exit(main())
