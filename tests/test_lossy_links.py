"""Tests for probabilistic message loss in the network model."""

import pytest

from repro.core.existence import build_lhg
from repro.errors import SimulationError
from repro.flooding.experiments import ExperimentSpec, repeat_runs, run_experiment
from repro.flooding.network import Network
from repro.flooding.simulator import Simulator
from repro.graphs.generators.classic import cycle_graph, path_graph


class TestLossParameters:
    def test_invalid_loss_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Network(path_graph(2), sim, loss_rate=1.0)
        with pytest.raises(SimulationError):
            Network(path_graph(2), sim, loss_rate=-0.1)

    def test_zero_loss_is_default_behaviour(self):
        g = cycle_graph(8)
        lossless = run_experiment(ExperimentSpec("flood", g, 0)).result
        explicit = run_experiment(ExperimentSpec("flood", g, 0, loss_rate=0.0)).result
        assert lossless.covered == explicit.covered == 8
        assert lossless.messages == explicit.messages


class TestLossAccounting:
    def test_lost_messages_counted_sent_and_dropped(self):
        g = path_graph(2)
        sim = Simulator()
        net = Network(g, sim, loss_rate=0.999999, loss_seed=1)

        class OneShot:
            def on_start(self, node, api):
                if node == 0:
                    api.send(1, "x")

            def on_message(self, node, payload, sender, api):
                raise AssertionError("message should have been lost")

            def on_timer(self, node, tag, api):
                pass

        net.attach(OneShot(), start_nodes=[0])
        sim.run()
        assert net.stats.messages_sent == 1
        assert net.stats.messages_dropped == 1
        assert net.stats.messages_delivered == 0

    def test_deterministic_in_loss_seed(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        spec = ExperimentSpec("flood", graph, source, loss_rate=0.3, loss_seed=7)
        a = run_experiment(spec).result
        b = run_experiment(spec).result
        assert a.covered == b.covered
        assert a.messages == b.messages


class TestLossResilience:
    def test_flooding_absorbs_moderate_loss(self):
        graph, _ = build_lhg(40, 4)
        source = graph.nodes()[0]
        agg = repeat_runs(
            ExperimentSpec("flood", graph, source, loss_rate=0.1), None, 10
        )
        # k parallel copies per node: 10% loss almost never severs all
        assert agg.mean_delivery_ratio() > 0.97

    def test_treecast_collapses_under_same_loss(self):
        graph, _ = build_lhg(40, 4)
        source = graph.nodes()[0]
        flood = repeat_runs(
            ExperimentSpec("flood", graph, source, loss_rate=0.15), None, 10
        )
        tree = repeat_runs(
            ExperimentSpec("treecast", graph, source, loss_rate=0.15), None, 10
        )
        assert flood.mean_delivery_ratio() > tree.mean_delivery_ratio() + 0.2

    def test_loss_reduces_coverage_monotonically_on_average(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        low = repeat_runs(
            ExperimentSpec("flood", graph, source, loss_rate=0.05), None, 15
        )
        high = repeat_runs(
            ExperimentSpec("flood", graph, source, loss_rate=0.5), None, 15
        )
        assert high.mean_delivery_ratio() < low.mean_delivery_ratio()
