"""Tests for the in-band view-change membership protocol."""

import pytest

from repro.core.existence import build_lhg
from repro.errors import ProtocolError, SimulationError
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.network import Network
from repro.flooding.protocols.viewchange import ViewChangeProtocol
from repro.flooding.simulator import Simulator
from repro.graphs.generators.classic import cycle_graph


class TestParameters:
    def test_timeout_must_exceed_period(self):
        sim = Simulator()
        net = Network(cycle_graph(4), sim)
        with pytest.raises(ProtocolError):
            ViewChangeProtocol(net, 0, period=2.0, timeout=1.0)

    def test_negative_decision_delay_rejected(self):
        sim = Simulator()
        net = Network(cycle_graph(4), sim)
        with pytest.raises(ProtocolError):
            ViewChangeProtocol(net, 0, decision_delay=-1.0)

    def test_crashed_coordinator_rejected(self):
        graph, _ = build_lhg(12, 3)
        coordinator = graph.nodes()[0]
        with pytest.raises(SimulationError):
            run_experiment(ExperimentSpec(
                "view-change", graph, coordinator,
                params={"crashed": (coordinator,), "crash_time": 10.0},
            ))


class TestConvergence:
    def test_single_crash_converges(self):
        graph, _ = build_lhg(20, 3)
        coordinator = graph.nodes()[0]
        victim = graph.nodes()[7]
        report = run_experiment(ExperimentSpec(
            "view-change", graph, coordinator,
            params={"crashed": (victim,), "crash_time": 10.0},
        )).metric("report")
        assert report.converged
        assert report.correct_membership
        assert report.adopters == report.survivors == 19

    def test_k_minus_1_burst_converges(self):
        graph, _ = build_lhg(24, 4)
        coordinator = graph.nodes()[0]
        victims = graph.nodes()[5:8]  # 3 = k-1 simultaneous crashes
        report = run_experiment(ExperimentSpec(
            "view-change", graph, coordinator,
            params={"crashed": tuple(victims), "crash_time": 10.0},
        )).metric("report")
        assert report.converged
        assert report.survivors == 21

    def test_no_crash_no_view_change(self):
        graph, _ = build_lhg(14, 3)
        coordinator = graph.nodes()[0]
        report = run_experiment(ExperimentSpec(
            "view-change", graph, coordinator,
            params={"crashed": (), "crash_time": 10.0},
        )).metric("report")
        assert report.decided_at is None
        assert report.adopters == 0

    def test_decision_delay_batches_the_burst(self):
        # one burst -> one decision containing every victim
        graph, _ = build_lhg(22, 3)
        coordinator = graph.nodes()[0]
        victims = [graph.nodes()[4], graph.nodes()[9]]
        report = run_experiment(ExperimentSpec(
            "view-change", graph, coordinator,
            params={
                "crashed": tuple(victims), "crash_time": 10.0, "decision_delay": 4.0,
            },
        )).metric("report")
        assert report.converged  # membership excludes BOTH victims

    def test_latency_ordering(self):
        # convergence happens after the decision, which happens after
        # the crash plus detection time
        graph, _ = build_lhg(20, 3)
        coordinator = graph.nodes()[0]
        victim = graph.nodes()[5]
        report = run_experiment(ExperimentSpec(
            "view-change", graph, coordinator,
            params={"crashed": (victim,), "crash_time": 10.0, "timeout": 3.0},
        )).metric("report")
        assert report.decided_at > 10.0 + 3.0
        assert report.last_adoption >= report.decided_at

    def test_tighter_timeout_converges_faster(self):
        graph, _ = build_lhg(20, 3)
        coordinator = graph.nodes()[0]
        victim = graph.nodes()[5]
        fast = run_experiment(ExperimentSpec(
            "view-change", graph, coordinator,
            params={
                "crashed": (victim,), "crash_time": 10.0, "period": 0.5, "timeout": 1.5,
            },
        )).metric("report")
        slow = run_experiment(ExperimentSpec(
            "view-change", graph, coordinator,
            params={
                "crashed": (victim,), "crash_time": 10.0, "period": 1.0, "timeout": 6.0,
            },
        )).metric("report")
        assert fast.converged and slow.converged
        assert fast.last_adoption < slow.last_adoption


class TestProtocolContract:
    def test_unexpected_payload_rejected(self):
        from repro.flooding.network import NodeApi

        sim = Simulator()
        net = Network(cycle_graph(4), sim)
        protocol = ViewChangeProtocol(net, 0)
        api = NodeApi(net, 0)
        protocol.on_start(0, api)
        with pytest.raises(ProtocolError):
            protocol.on_message(0, object(), 1, api)
