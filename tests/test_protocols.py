"""Tests for flooding, gossip and tree-cast protocols."""

import pytest

from repro.core.existence import build_lhg
from repro.errors import ProtocolError
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.failures import FailureSchedule, crash_before_start
from repro.flooding.network import ConstantLatency, Network, UniformLatency
from repro.flooding.protocols.flood import FloodProtocol, MultiSourceFloodProtocol
from repro.flooding.protocols.treecast import TreeCastProtocol
from repro.flooding.simulator import Simulator
from repro.graphs.generators.classic import (
    balanced_tree,
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.graphs.traversal import bfs_levels, diameter


class TestFloodProtocol:
    def test_full_coverage_on_connected_graph(self):
        result = run_experiment(ExperimentSpec("flood", cycle_graph(10), 0)).result
        assert result.covered == 10
        assert result.fully_covered

    def test_completion_time_is_eccentricity(self):
        g = path_graph(6)
        result = run_experiment(ExperimentSpec("flood", g, 0)).result
        assert result.completion_time == 5.0

    def test_delivery_times_match_bfs_levels(self):
        graph, _ = build_lhg(22, 3)
        source = graph.nodes()[0]
        result = run_experiment(ExperimentSpec("flood", graph, source)).result
        levels = bfs_levels(graph, source)
        for node, time in result.delivery_times.items():
            assert time == float(levels[node])

    def test_message_count_bounds(self):
        g = complete_graph(6)
        result = run_experiment(ExperimentSpec("flood", g, 0)).result
        m = g.number_of_edges()
        # every covered node sends deg or deg-1 messages
        assert result.messages <= 2 * m
        assert result.messages >= m

    def test_flood_on_tree_sends_minimum(self):
        g = balanced_tree(2, 3)
        result = run_experiment(ExperimentSpec("flood", g, 0)).result
        # On a tree flooding sends exactly one message per edge... plus
        # the child->parent echoes: each non-source node sends deg-1.
        assert result.fully_covered
        assert result.completion_time == 3.0

    def test_duplicate_suppression(self):
        g = complete_graph(5)
        result = run_experiment(ExperimentSpec("flood", g, 0)).result
        # n-1 deliveries trigger forwarding once each
        assert result.covered == 5

    def test_non_unit_latency(self):
        g = path_graph(3)
        result = run_experiment(
            ExperimentSpec("flood", g, 0, latency=ConstantLatency(2.0))
        ).result
        assert result.completion_time == 4.0

    def test_random_latency_still_covers(self):
        graph, _ = build_lhg(14, 3)
        result = run_experiment(ExperimentSpec(
            "flood", graph, graph.nodes()[0], latency=UniformLatency(0.5, 1.5, seed=2),
        )).result
        assert result.fully_covered


class TestMultiSourceFlood:
    def test_two_messages_cover_independently(self):
        g = cycle_graph(8)
        sim = Simulator()
        net = Network(g, sim)
        protocol = MultiSourceFloodProtocol(net, sources=(0, 4))
        net.attach(protocol, start_nodes=[0, 4])
        sim.run()
        assert len(protocol.seen[(0, 0)]) == 8
        assert len(protocol.seen[(4, 1)]) == 8

    def test_message_cost_scales_with_sources(self):
        g = cycle_graph(10)

        def cost(sources):
            sim = Simulator()
            net = Network(g, sim)
            protocol = MultiSourceFloodProtocol(net, sources=sources)
            net.attach(protocol, start_nodes=list(sources))
            sim.run()
            return net.stats.messages_sent

        assert cost((0, 5)) == 2 * cost((0,))


class TestGossip:
    def test_high_fanout_covers(self):
        g = complete_graph(12)
        result = run_experiment(
            ExperimentSpec("gossip", g, 0, seed=1, params={"fanout": 4, "rounds": 12})
        ).result
        assert result.fully_covered

    def test_deterministic_in_seed(self):
        graph, _ = build_lhg(20, 4)
        spec = ExperimentSpec(
            "gossip", graph, graph.nodes()[0], seed=9, params={"fanout": 2, "rounds": 6}
        )
        a = run_experiment(spec).result
        b = run_experiment(spec).result
        assert a.covered == b.covered
        assert a.messages == b.messages

    def test_few_rounds_may_miss_nodes(self):
        graph, _ = build_lhg(46, 3)
        result = run_experiment(ExperimentSpec(
            "gossip", graph, graph.nodes()[0], seed=0,
            params={"fanout": 1, "rounds": 2},
        )).result
        assert result.covered < result.n

    def test_more_messages_than_flooding(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        flood = run_experiment(ExperimentSpec("flood", graph, source)).result
        gossip = run_experiment(ExperimentSpec(
            "gossip", graph, source, seed=0, params={"fanout": 3, "rounds": 12},
        )).result
        assert gossip.messages > flood.messages


class TestTreeCast:
    def test_sends_exactly_n_minus_1(self):
        g = cycle_graph(9)
        result = run_experiment(ExperimentSpec("treecast", g, 0)).result
        assert result.messages == 8
        assert result.fully_covered

    def test_single_crash_partitions(self):
        g = path_graph(5)
        result = run_experiment(
            ExperimentSpec("treecast", g, 0, failures=crash_before_start([2]))
        ).result
        # nodes 3,4 unreachable in the tree (and the survivor graph)
        assert result.covered == 2
        assert result.reachable == 2  # fair denominator agrees here

    def test_interior_crash_loses_subtree(self):
        g = complete_graph(6)  # tree is a star rooted at 0
        result = run_experiment(
            ExperimentSpec("treecast", g, 0, failures=crash_before_start([1]))
        ).result
        # survivor graph is still connected, but the tree lost node 1 only
        assert result.reachable == 5
        assert result.covered == 5  # star: node 1 was a leaf of the tree

    def test_source_not_in_graph_rejected(self):
        sim = Simulator()
        g = cycle_graph(4)
        net = Network(g, sim)
        with pytest.raises(ProtocolError):
            TreeCastProtocol(net, g, "ghost")


class TestSourceValidation:
    def test_crashed_source_rejected_everywhere(self):
        from repro.errors import SimulationError

        g = cycle_graph(6)
        dead_source = crash_before_start([0])
        for protocol in ("flood", "gossip", "treecast"):
            with pytest.raises(SimulationError):
                run_experiment(ExperimentSpec(protocol, g, 0, failures=dead_source))
