"""Tests for reliable (ACK/retransmit) flooding."""

import pytest

from repro.core.existence import build_lhg
from repro.errors import ProtocolError
from repro.flooding.experiments import ExperimentSpec, repeat_runs, run_experiment
from repro.flooding.failures import crash_before_start
from repro.flooding.network import Network
from repro.flooding.protocols.reliable import ReliableFloodProtocol
from repro.flooding.simulator import Simulator
from repro.graphs.generators.classic import cycle_graph, path_graph


class TestParameters:
    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        net = Network(cycle_graph(4), sim)
        with pytest.raises(ProtocolError):
            ReliableFloodProtocol(net, 0, retry_timeout=0.0)
        with pytest.raises(ProtocolError):
            ReliableFloodProtocol(net, 0, max_retries=-1)


class TestLosslessBehaviour:
    def test_coverage_and_message_shape(self):
        graph, _ = build_lhg(20, 3)
        source = graph.nodes()[0]
        result = run_experiment(ExperimentSpec("reliable-flood", graph, source)).result
        assert result.fully_covered
        plain = run_experiment(ExperimentSpec("flood", graph, source)).result
        # data copies match plain flooding; ACKs double the bill
        assert result.messages == 2 * plain.messages

    def test_no_retransmissions_without_loss(self):
        g = path_graph(5)
        sim = Simulator()
        net = Network(g, sim)
        protocol = ReliableFloodProtocol(net, 0)
        net.attach(protocol, start_nodes=[0])
        sim.run()
        assert protocol.retransmissions == 0
        assert len(protocol.seen) == 5


class TestLossyBehaviour:
    def test_full_coverage_at_heavy_loss(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        for seed in range(5):
            result = run_experiment(ExperimentSpec(
                "reliable-flood", graph, source, loss_rate=0.4, loss_seed=seed,
            )).result
            assert result.fully_covered, seed

    def test_beats_plain_flooding_at_same_loss(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        plain = repeat_runs(
            ExperimentSpec("flood", graph, source, loss_rate=0.45), None, 10
        )
        reliable = repeat_runs(
            ExperimentSpec("reliable-flood", graph, source, loss_rate=0.45), None, 10
        )
        assert reliable.mean_delivery_ratio() > plain.mean_delivery_ratio()
        assert reliable.mean_delivery_ratio() == 1.0

    def test_overhead_grows_with_loss(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        low = run_experiment(
            ExperimentSpec("reliable-flood", graph, source, loss_rate=0.1, loss_seed=3)
        ).result
        high = run_experiment(
            ExperimentSpec("reliable-flood", graph, source, loss_rate=0.5, loss_seed=3)
        ).result
        assert high.messages > low.messages

    def test_retry_budget_exhaustion_gives_up(self):
        # max_retries=0 at extreme loss behaves like plain flooding
        graph, _ = build_lhg(20, 3)
        source = graph.nodes()[0]
        result = run_experiment(ExperimentSpec(
            "reliable-flood", graph, source, loss_rate=0.9, loss_seed=2,
            params={"max_retries": 0},
        )).result
        assert result.covered < result.n


class TestWithCrashes:
    def test_crash_tolerance_retained(self):
        graph, _ = build_lhg(20, 3)
        source = graph.nodes()[0]
        victims = [graph.nodes()[4], graph.nodes()[7]]
        result = run_experiment(ExperimentSpec(
            "reliable-flood", graph, source, failures=crash_before_start(victims),
            loss_rate=0.3, loss_seed=1,
        )).result
        # k-1 crashes + 30% loss: reliability machinery still covers all
        assert result.fully_covered
