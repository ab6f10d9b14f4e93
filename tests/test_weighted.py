"""Tests for weighted shortest paths and the simulator cross-validation."""

import pytest

from repro.core.existence import build_lhg
from repro.errors import DisconnectedGraphError, GraphError, NodeNotFoundError
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.network import FixedLinkLatency
from repro.graphs.graph import Graph
from repro.graphs.generators.classic import cycle_graph, path_graph
from repro.graphs.weighted import (
    dijkstra,
    link_weights_from_seed,
    weighted_diameter,
    weighted_eccentricity,
    weighted_shortest_path,
)


def unit(u, v):
    return 1.0


class TestDijkstra:
    def test_unit_weights_match_bfs(self):
        from repro.graphs.traversal import bfs_levels

        graph, _ = build_lhg(22, 3)
        source = graph.nodes()[0]
        weighted = dijkstra(graph, source, unit)
        hops = bfs_levels(graph, source)
        assert weighted == {node: float(d) for node, d in hops.items()}

    def test_weights_change_routes(self):
        # square where the direct edge is expensive
        g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        weight = lambda u, v: 10.0 if {u, v} == {0, 2} else 1.0
        assert dijkstra(g, 0, weight)[2] == 2.0
        assert weighted_shortest_path(g, 0, 2, weight) == [0, 1, 2]

    def test_unreachable_omitted(self):
        g = Graph(nodes=[0, 1])
        assert dijkstra(g, 0, unit) == {0: 0.0}
        assert weighted_shortest_path(g, 0, 1, unit) is None

    def test_missing_source(self):
        with pytest.raises(NodeNotFoundError):
            dijkstra(Graph(), 0, unit)

    def test_negative_weight_rejected(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            dijkstra(g, 0, lambda u, v: -1.0)

    def test_path_reconstruction_valid(self):
        graph, _ = build_lhg(14, 3)
        weight = link_weights_from_seed(graph, 0.5, 2.0, seed=3)
        nodes = graph.nodes()
        path = weighted_shortest_path(graph, nodes[0], nodes[-1], weight)
        assert path[0] == nodes[0] and path[-1] == nodes[-1]
        assert all(graph.has_edge(u, v) for u, v in zip(path, path[1:]))


class TestEccentricityDiameter:
    def test_cycle_unit_diameter(self):
        assert weighted_diameter(cycle_graph(8), unit) == 4.0

    def test_disconnected_raises(self):
        g = Graph(nodes=[0, 1])
        with pytest.raises(DisconnectedGraphError):
            weighted_eccentricity(g, 0, unit)

    def test_empty_diameter(self):
        assert weighted_diameter(Graph(), unit) == 0.0


class TestLinkWeightsFromSeed:
    def test_symmetric_and_deterministic(self):
        graph, _ = build_lhg(10, 3)
        a = link_weights_from_seed(graph, 0.5, 1.5, seed=7)
        b = link_weights_from_seed(graph, 0.5, 1.5, seed=7)
        for u, v in graph.iter_edges():
            assert a(u, v) == a(v, u) == b(u, v)
            assert 0.5 <= a(u, v) <= 1.5

    def test_non_link_rejected(self):
        g = path_graph(3)
        weight = link_weights_from_seed(g, 1.0, 2.0)
        with pytest.raises(GraphError):
            weight(0, 2)

    def test_domain(self):
        with pytest.raises(GraphError):
            link_weights_from_seed(path_graph(3), 0.0, 1.0)


class TestSimulatorCrossValidation:
    """Two independent implementations must agree: event-driven flooding
    over fixed link latencies vs Dijkstra weighted eccentricity."""

    @pytest.mark.parametrize("n,k,seed", [(14, 3, 1), (22, 3, 2), (20, 4, 3)])
    def test_flood_completion_equals_weighted_eccentricity(self, n, k, seed):
        graph, _ = build_lhg(n, k)
        weight = link_weights_from_seed(graph, 0.3, 2.5, seed=seed)
        source = graph.nodes()[0]
        result = run_experiment(
            ExperimentSpec("flood", graph, source, latency=FixedLinkLatency(weight))
        ).result
        assert result.fully_covered
        expected = weighted_eccentricity(graph, source, weight)
        assert result.completion_time == pytest.approx(expected)

    def test_per_node_delivery_times_equal_dijkstra(self):
        graph, _ = build_lhg(17, 3)
        weight = link_weights_from_seed(graph, 0.5, 2.0, seed=9)
        source = graph.nodes()[0]
        result = run_experiment(
            ExperimentSpec("flood", graph, source, latency=FixedLinkLatency(weight))
        ).result
        distances = dijkstra(graph, source, weight)
        for node, time in result.delivery_times.items():
            assert time == pytest.approx(distances[node])