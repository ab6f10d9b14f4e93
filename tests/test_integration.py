"""End-to-end integration tests spanning all packages."""

import pytest

from repro import ExperimentSpec, build_lhg, check_lhg, run_experiment
from repro.core.certificates import ConstructionCertificate
from repro.core.routing import tree_route
from repro.flooding import random_crashes, repeat_runs
from repro.graphs.io import from_json, to_json
from repro.graphs.nxcompat import to_networkx
from repro.overlay import LHGOverlay, generate_trace


class TestBuildVerifyFloodPipeline:
    def test_full_pipeline(self):
        graph, cert = build_lhg(34, 3)
        report = check_lhg(graph, 3)
        assert report.is_lhg
        source = graph.nodes()[0]
        agg = repeat_runs(
            ExperimentSpec("flood", graph, source),
            lambda seed: random_crashes(graph, 2, seed=seed, protect={source}),
            10,
        )
        assert agg.min_delivery_ratio() == 1.0

    def test_serialise_everything_and_resume(self):
        graph, cert = build_lhg(14, 3)
        graph2 = from_json(to_json(graph))
        cert2 = ConstructionCertificate.from_json(cert.to_json())
        cert2.verify_graph(graph2)
        # routing still works on the restored pair
        nodes = graph2.nodes()
        path = tree_route(cert2, nodes[0], nodes[-1])
        assert path[0] == nodes[0] and path[-1] == nodes[-1]

    def test_networkx_cross_validation(self):
        networkx = pytest.importorskip("networkx")
        graph, _ = build_lhg(20, 4)
        nx_graph = to_networkx(graph)
        assert networkx.node_connectivity(nx_graph) == 4
        assert networkx.edge_connectivity(nx_graph) == 4
        from repro.graphs.traversal import diameter

        assert networkx.diameter(nx_graph) == diameter(graph)


class TestOverlayToFloodingPipeline:
    def test_churned_overlay_floods_reliably(self):
        overlay = LHGOverlay(k=3)
        trace = generate_trace(25, 14, 3, seed=5)
        for event in trace:
            if event.kind == "join":
                overlay.join(event.member)
            else:
                overlay.leave(event.member)
        topology = overlay.topology()
        source = overlay.members[0]
        for seed in range(5):
            schedule = random_crashes(topology, 2, seed=seed, protect={source})
            result = run_experiment(
                ExperimentSpec("flood", topology, source, failures=schedule)
            ).result
            assert result.fully_covered

    def test_overlay_growth_spans_rules(self):
        # growing one by one crosses JD-feasible, K-DIAMOND-regular and
        # K-TREE-only sizes; the overlay must never miss a beat
        overlay = LHGOverlay(k=3)
        for i in range(6):
            overlay.join(i)
        for i in range(6, 20):
            overlay.join(i)
            assert overlay.topology().number_of_nodes() == i + 1
            assert overlay.topology().min_degree() >= 3
