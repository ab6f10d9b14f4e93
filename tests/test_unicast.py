"""Tests for source-routed and redundant unicast protocols."""

import pytest

from repro.core.existence import build_lhg
from repro.core.routing import menger_witness, tree_route
from repro.errors import ProtocolError
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.failures import crash_before_start, random_crashes
from repro.flooding.network import Network
from repro.flooding.protocols.unicast import (
    RedundantUnicast,
    RoutedMessage,
    SourceRoutedUnicast,
)
from repro.flooding.simulator import Simulator
from repro.graphs.generators.classic import path_graph


class TestRoutedMessage:
    def test_next_hop_progression(self):
        message = RoutedMessage(path=(0, 1, 2), hop_index=0)
        assert message.next_hop() == 1
        advanced = message.advanced()
        assert advanced.hop_index == 1
        assert advanced.next_hop() == 2
        assert advanced.advanced().next_hop() is None


class TestSourceRouted:
    def test_delivery_along_path(self):
        g = path_graph(5)
        run = run_experiment(
            ExperimentSpec("unicast", g, params={"path": [0, 1, 2, 3, 4]})
        )
        assert run.metric("delivered_at") == 4.0
        assert run.metric("hops") == 4

    def test_self_delivery(self):
        g = path_graph(2)
        run = run_experiment(ExperimentSpec("unicast", g, params={"path": [0]}))
        assert run.metric("delivered_at") == 0.0
        assert run.metric("hops") == 0

    def test_crash_on_path_kills_delivery(self):
        g = path_graph(5)
        run = run_experiment(ExperimentSpec(
            "unicast", g, failures=crash_before_start([2]),
            params={"path": [0, 1, 2, 3, 4]},
        ))
        assert run.metric("delivered_at") is None
        assert run.metric("hops") < 4

    def test_certificate_route_delivers(self):
        graph, cert = build_lhg(22, 3)
        nodes = graph.nodes()
        path = tree_route(cert, nodes[0], nodes[-1])
        run = run_experiment(ExperimentSpec("unicast", graph, params={"path": path}))
        assert run.metric("delivered_at") == float(len(path) - 1)
        assert run.metric("hops") == len(path) - 1

    def test_empty_path_rejected(self):
        sim = Simulator()
        net = Network(path_graph(2), sim)
        with pytest.raises(ProtocolError):
            SourceRoutedUnicast(net, [])


class TestRedundant:
    def test_kth_copy_survives_any_k_minus_1_crashes(self):
        graph, cert = build_lhg(20, 4)
        nodes = graph.nodes()
        s, t = nodes[0], nodes[-1]
        paths = menger_witness(graph, cert, s, t)
        interior = [v for p in paths for v in p[1:-1]]
        # crash k-1 arbitrary interior nodes: delivery always succeeds
        for seed in range(12):
            schedule = random_crashes(
                graph, 3, seed=seed, protect={s, t}
            )
            run = run_experiment(ExperimentSpec(
                "redundant-unicast", graph, failures=schedule, params={"paths": paths}
            ))
            assert run.metric("delivered_at") is not None, seed
            assert run.metric("copies") >= 1

    def test_single_path_fails_where_redundant_succeeds(self):
        graph, cert = build_lhg(20, 4)
        nodes = graph.nodes()
        s, t = nodes[0], nodes[-1]
        paths = menger_witness(graph, cert, s, t)
        long_paths = [p for p in paths if len(p) > 2]
        victim_path = long_paths[0]
        schedule = crash_before_start([victim_path[1]])
        single = run_experiment(ExperimentSpec(
            "unicast", graph, failures=schedule, params={"path": victim_path}
        ))
        redundant = run_experiment(ExperimentSpec(
            "redundant-unicast", graph, failures=schedule, params={"paths": paths}
        ))
        assert single.metric("delivered_at") is None
        assert redundant.metric("delivered_at") is not None

    def test_message_cost_is_sum_of_path_lengths(self):
        graph, cert = build_lhg(14, 3)
        nodes = graph.nodes()
        paths = menger_witness(graph, cert, nodes[0], nodes[-1])
        run = run_experiment(
            ExperimentSpec("redundant-unicast", graph, params={"paths": paths})
        )
        assert run.metric("copies") == len([p for p in paths if len(p) > 1])
        assert run.metric("messages") == sum(len(p) - 1 for p in paths)

    def test_mismatched_endpoints_rejected(self):
        sim = Simulator()
        net = Network(path_graph(4), sim)
        with pytest.raises(ProtocolError):
            RedundantUnicast(net, [[0, 1, 2], [0, 1, 3]])

    def test_no_paths_rejected(self):
        sim = Simulator()
        net = Network(path_graph(2), sim)
        with pytest.raises(ProtocolError):
            RedundantUnicast(net, [])
