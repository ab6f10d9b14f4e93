"""Tests for the flood-and-echo (PIF) protocol."""

import pytest

from repro.core.existence import build_lhg
from repro.errors import ProtocolError, SimulationError
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.failures import FailureSchedule, crash_before_start
from repro.graphs.generators.classic import cycle_graph, path_graph, star_graph
from repro.graphs.traversal import eccentricity


class TestHappyPath:
    def test_counts_all_nodes(self):
        graph, _ = build_lhg(22, 3)
        run = run_experiment(ExperimentSpec("echo", graph, graph.nodes()[0]))
        assert run.metric("completed")
        assert run.metric("aggregate") == 22

    def test_completion_near_twice_eccentricity(self):
        graph, _ = build_lhg(46, 3)
        source = graph.nodes()[0]
        run = run_experiment(ExperimentSpec("echo", graph, source))
        ecc = eccentricity(graph, source)
        assert 2 * ecc <= run.metric("completed_at") <= 2 * ecc + 4

    def test_custom_aggregate_max(self):
        g = cycle_graph(7)
        run = run_experiment(ExperimentSpec(
            "echo", g, 0, params={"value_of": lambda node: node, "combine": max}
        ))
        assert run.metric("completed")
        assert run.metric("aggregate") == 6

    def test_sum_of_values(self):
        g = star_graph(4)
        run = run_experiment(
            ExperimentSpec("echo", g, 0, params={"value_of": lambda node: 10})
        )
        assert run.metric("aggregate") == 50  # 5 nodes x 10

    def test_parent_tree_spans_graph(self):
        graph, _ = build_lhg(14, 3)
        source = graph.nodes()[0]
        parent = run_experiment(ExperimentSpec("echo", graph, source)).metric("parent")
        assert set(parent) == set(graph.nodes())
        assert parent[source] is None
        roots = [v for v, p in parent.items() if p is None]
        assert roots == [source]

    def test_single_edge_graph(self):
        g = path_graph(2)
        run = run_experiment(ExperimentSpec("echo", g, 0))
        assert run.metric("completed")
        assert run.metric("aggregate") == 2


class TestUnderFailures:
    def test_crash_blocks_completion(self):
        graph, _ = build_lhg(22, 3)
        source = graph.nodes()[0]
        victim = graph.nodes()[5]
        run = run_experiment(ExperimentSpec(
            "echo", graph, source, failures=crash_before_start([victim])
        ))
        assert not run.metric("completed")
        assert run.metric("pending")  # someone waits on the dead node

    def test_wave_still_covers_survivors(self):
        graph, _ = build_lhg(22, 3)
        source = graph.nodes()[0]
        victim = graph.nodes()[5]
        run = run_experiment(ExperimentSpec(
            "echo", graph, source, failures=crash_before_start([victim])
        ))
        # k-connectivity: the wave reaches every survivor even though
        # the echo cannot complete
        assert set(run.metric("parent")) >= set(graph.nodes()) - {victim}

    def test_crashed_source_rejected(self):
        g = cycle_graph(5)
        with pytest.raises(SimulationError):
            run_experiment(
                ExperimentSpec("echo", g, 0, failures=crash_before_start([0]))
            )

    def test_late_crash_after_completion_harmless(self):
        graph, _ = build_lhg(14, 3)
        source = graph.nodes()[0]
        schedule = FailureSchedule().crash(graph.nodes()[3], time=1000.0)
        run = run_experiment(
            ExperimentSpec("echo", graph, source, failures=schedule)
        )
        assert run.metric("completed")


class TestProtocolContract:
    def test_unexpected_payload_rejected(self):
        from repro.flooding.network import Network, NodeApi
        from repro.flooding.protocols.echo import EchoProtocol
        from repro.flooding.simulator import Simulator

        sim = Simulator()
        net = Network(cycle_graph(4), sim)
        protocol = EchoProtocol(net, 0)
        api = NodeApi(net, 0)
        protocol.on_start(0, api)
        with pytest.raises(ProtocolError):
            protocol.on_message(0, "garbage", 1, api)

    def test_unexpected_echo_rejected(self):
        from repro.flooding.network import Network, NodeApi
        from repro.flooding.protocols.echo import EchoProtocol, _Echo
        from repro.flooding.simulator import Simulator

        sim = Simulator()
        net = Network(cycle_graph(4), sim)
        protocol = EchoProtocol(net, 0)
        api = NodeApi(net, 0)
        protocol.on_start(0, api)
        protocol.on_message(0, _Echo(aggregate=1), 1, api)  # expected: 1 owes one
        with pytest.raises(ProtocolError):
            protocol.on_message(0, _Echo(aggregate=1), 1, api)  # duplicate
