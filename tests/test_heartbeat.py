"""Tests for the heartbeat failure detector."""

import pytest

from repro.core.existence import build_lhg
from repro.errors import ProtocolError
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.failures import FailureSchedule, apply_schedule
from repro.flooding.network import ExponentialLatency, Network
from repro.flooding.protocols.heartbeat import HeartbeatProtocol
from repro.flooding.simulator import Simulator
from repro.graphs.generators.classic import cycle_graph


class TestParameters:
    def test_timeout_must_exceed_period(self):
        sim = Simulator()
        net = Network(cycle_graph(4), sim)
        with pytest.raises(ProtocolError):
            HeartbeatProtocol(net, period=2.0, timeout=1.0)

    def test_positive_parameters(self):
        sim = Simulator()
        net = Network(cycle_graph(4), sim)
        with pytest.raises(ProtocolError):
            HeartbeatProtocol(net, period=0.0)


class TestDetection:
    def test_crash_detected_by_all_neighbours(self):
        graph, _ = build_lhg(14, 3)
        victim = graph.nodes()[3]
        report = run_experiment(ExperimentSpec(
            "failure-detection", graph,
            params={"crashed": (victim,), "crash_time": 10.0},
        )).metric("report")
        assert report.complete
        assert report.accurate

    def test_detection_delay_bounded_by_timeout_plus_period(self):
        graph, _ = build_lhg(14, 3)
        victim = graph.nodes()[0]
        period, timeout = 1.0, 3.5
        report = run_experiment(ExperimentSpec(
            "failure-detection", graph,
            params={
                "crashed": (victim,), "crash_time": 10.0, "period": period,
                "timeout": timeout,
            },
        )).metric("report")
        assert report.worst_detection_delay is not None
        # delay <= timeout + check period + last heartbeat's flight time
        assert report.worst_detection_delay <= timeout + 2 * period + 1.0
        assert report.best_detection_delay > timeout - period - 1.0

    def test_multiple_crashes_all_detected(self):
        graph, _ = build_lhg(20, 4)
        victims = graph.nodes()[2:5]
        report = run_experiment(ExperimentSpec(
            "failure-detection", graph,
            params={"crashed": tuple(victims), "crash_time": 8.0},
        )).metric("report")
        assert report.complete
        assert report.accurate

    def test_no_crash_no_suspicion_under_constant_latency(self):
        graph, _ = build_lhg(14, 3)
        report = run_experiment(ExperimentSpec(
            "failure-detection", graph, params={"crashed": (), "crash_time": 0.0},
        )).metric("report")
        assert report.accurate
        assert report.detection_delays == ()

    def test_shorter_timeout_detects_faster(self):
        graph, _ = build_lhg(14, 3)
        victim = graph.nodes()[1]
        fast = run_experiment(ExperimentSpec(
            "failure-detection", graph,
            params={
                "crashed": (victim,), "crash_time": 10.0, "period": 0.5, "timeout": 1.2,
            },
        )).metric("report")
        slow = run_experiment(ExperimentSpec(
            "failure-detection", graph,
            params={
                "crashed": (victim,), "crash_time": 10.0, "period": 1.0, "timeout": 6.0,
            },
        )).metric("report")
        assert fast.worst_detection_delay < slow.worst_detection_delay


class TestAccuracyTradeoff:
    def test_tight_timeout_with_heavy_tail_latency_false_suspects(self):
        graph, _ = build_lhg(20, 3)
        report = run_experiment(ExperimentSpec(
            "failure-detection", graph, latency=ExponentialLatency(0.1, 1.5, seed=4),
            params={"crashed": (), "crash_time": 0.0, "period": 1.0, "timeout": 2.2},
        )).metric("report")
        assert report.false_suspicions > 0  # eventually-perfect, not perfect

    def test_generous_timeout_restores_accuracy(self):
        graph, _ = build_lhg(20, 3)
        report = run_experiment(ExperimentSpec(
            "failure-detection", graph, latency=ExponentialLatency(0.1, 1.5, seed=4),
            params={"crashed": (), "crash_time": 0.0, "period": 1.0, "timeout": 12.0},
        )).metric("report")
        assert report.accurate

    def test_detection_robust_to_message_loss(self):
        # losing 20% of heartbeats must not trigger suspicion with a
        # timeout covering a few periods
        graph, _ = build_lhg(14, 3)
        victim = graph.nodes()[2]
        report = run_experiment(ExperimentSpec(
            "failure-detection", graph, loss_rate=0.2,
            params={
                "crashed": (victim,), "crash_time": 10.0, "period": 1.0, "timeout": 4.5,
            },
        )).metric("report")
        assert report.complete
        assert report.accurate


class TestRevocation:
    def test_false_suspicion_revoked_on_next_heartbeat(self):
        from repro.flooding.network import NodeApi

        graph = cycle_graph(4)
        sim = Simulator()
        net = Network(graph, sim)
        protocol = HeartbeatProtocol(net, period=1.0, timeout=2.0, horizon=5.0)
        api = NodeApi(net, 0)
        protocol.on_start(0, api)
        # force a suspicion of neighbour 1, then deliver its heartbeat
        protocol.suspected[0].add(1)
        protocol.on_message(0, "heartbeat", 1, api)
        assert 1 not in protocol.suspected[0]

    def test_unexpected_payload_rejected(self):
        from repro.flooding.network import NodeApi

        sim = Simulator()
        net = Network(cycle_graph(4), sim)
        protocol = HeartbeatProtocol(net)
        api = NodeApi(net, 0)
        protocol.on_start(0, api)
        with pytest.raises(ProtocolError):
            protocol.on_message(0, "garbage", 1, api)
