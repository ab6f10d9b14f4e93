"""Tests for the ARQ retransmission layer."""

import pytest

from repro.core.existence import build_lhg
from repro.errors import ProtocolError, SimulationError
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.failures import crash_and_recover, flapping_links
from repro.flooding.network import Network, NodeApi, Protocol
from repro.flooding.protocols.arq import ArqAck, ArqData, ArqProtocol
from repro.flooding.simulator import Simulator
from repro.graphs.generators.classic import path_graph


class OneShot(Protocol):
    """Inner protocol: node 0 sends one payload to node 1 at start."""

    def __init__(self):
        self.received = []
        self.timers = []

    def on_start(self, node, api):
        if node == 0:
            api.send(1, "hello")

    def on_message(self, node, payload, sender, api):
        self.received.append((node, payload, sender))

    def on_timer(self, node, tag, api):
        self.timers.append((node, tag))


def wire(graph, inner=None, fault_model=None, **kwargs):
    sim = Simulator()
    net = Network(graph, sim, fault_model=fault_model)
    inner = inner if inner is not None else OneShot()
    arq = ArqProtocol(net, inner, **kwargs)
    net.attach(arq, start_nodes=[0])
    return sim, net, inner, arq


class TestParameterValidation:
    def test_nonpositive_base_timeout(self):
        sim = Simulator()
        net = Network(path_graph(2), sim)
        with pytest.raises(ProtocolError):
            ArqProtocol(net, OneShot(), base_timeout=0.0)

    def test_max_below_base(self):
        sim = Simulator()
        net = Network(path_graph(2), sim)
        with pytest.raises(ProtocolError):
            ArqProtocol(net, OneShot(), base_timeout=5.0, max_timeout=1.0)

    def test_backoff_below_one(self):
        sim = Simulator()
        net = Network(path_graph(2), sim)
        with pytest.raises(ProtocolError):
            ArqProtocol(net, OneShot(), backoff=0.5)

    def test_negative_retries(self):
        sim = Simulator()
        net = Network(path_graph(2), sim)
        with pytest.raises(ProtocolError):
            ArqProtocol(net, OneShot(), max_retries=-1)


class TestHappyPath:
    def test_delivers_exactly_once_without_faults(self):
        sim, net, inner, arq = wire(path_graph(2))
        sim.run()
        assert inner.received == [(1, "hello", 0)]
        assert arq.frames_sent == 1
        assert arq.acks_sent == 1
        assert arq.retransmissions == 0
        assert arq.pending_frames == 0

    def test_non_arq_payload_rejected(self):
        sim, net, inner, arq = wire(path_graph(2))
        sim.run()
        with pytest.raises(ProtocolError):
            arq.on_message(1, "raw", 0, NodeApi(net, 1))

    def test_inner_timers_pass_through(self):
        sim, net, inner, arq = wire(path_graph(2))
        net.set_timer(0, 1.0, ("inner", 42))
        sim.run()
        assert inner.timers == [(0, ("inner", 42))]


class TestRetransmission:
    def test_retries_until_link_heals(self):
        sim, net, inner, arq = wire(path_graph(2))
        net.fail_link(0, 1)
        sim.schedule(20.0, lambda: net.restore_link(0, 1))
        sim.run()
        assert inner.received == [(1, "hello", 0)]
        assert arq.retransmissions >= 1
        assert arq.pending_frames == 0

    def test_backoff_doubles_and_caps(self):
        sim, net, inner, arq = wire(
            path_graph(2), base_timeout=1.0, backoff=2.0, max_timeout=4.0,
            max_retries=20,
        )
        net.fail_link(0, 1)
        sends = []
        net.add_observer(
            lambda kind, time, **d: kind == "drop" and sends.append(time)
        )
        sim.schedule(30.0, lambda: net.restore_link(0, 1))
        sim.run()
        gaps = [b - a for a, b in zip(sends, sends[1:])]
        # 1, 2, 4, then capped at 4
        assert gaps[:3] == [1.0, 2.0, 4.0]
        assert all(g == 4.0 for g in gaps[3:])

    def test_gives_up_after_budget(self):
        sim, net, inner, arq = wire(
            path_graph(2), base_timeout=1.0, max_timeout=1.0, max_retries=3
        )
        net.fail_link(0, 1)  # never restored
        sim.run()
        assert inner.received == []
        assert arq.retransmissions == 3
        assert arq.gave_up == 1
        assert arq.pending_frames == 0

    def test_retry_budget_bound_holds(self):
        sim, net, inner, arq = wire(
            path_graph(2), base_timeout=1.0, max_timeout=1.0, max_retries=3
        )
        net.fail_link(0, 1)
        sim.run()
        assert arq.retransmissions <= arq.retry_budget == 3 * arq.frames_created


class TestDeduplication:
    def test_duplicate_frames_suppressed(self):
        from repro.flooding.faults import noisy_links

        sim, net, inner, arq = wire(
            path_graph(2), fault_model=noisy_links(duplicate=0.999, seed=1)
        )
        sim.run()
        # the inner protocol saw the payload exactly once...
        assert inner.received == [(1, "hello", 0)]
        assert arq.duplicates_suppressed >= 1
        # ...but every copy was ACKed (the sender may be retrying)
        assert arq.acks_sent >= 2

    def test_frame_types_carry_ids(self):
        frame = ArqData(msg_id=(0, 7), payload="x")
        ack = ArqAck(msg_id=(0, 7))
        assert frame.msg_id == ack.msg_id


class TestEndToEnd:
    def test_arq_flood_full_coverage_under_loss(self):
        graph, _ = build_lhg(24, 3)
        source = graph.nodes()[0]
        result = run_experiment(
            ExperimentSpec("arq-flood", graph, source, loss_rate=0.3, loss_seed=5)
        ).result
        assert result.fully_covered

    def test_arq_beats_plain_across_long_outage(self):
        graph, _ = build_lhg(24, 3)
        source = graph.nodes()[0]
        victims = [v for v in graph.nodes() if v != source][:3]
        schedule = crash_and_recover(victims, crash_at=0.5, recover_at=35.0)
        plain = run_experiment(
            ExperimentSpec("reliable-flood", graph, source, failures=schedule)
        ).result
        arq = run_experiment(
            ExperimentSpec("arq-flood", graph, source, failures=schedule)
        ).result
        assert arq.fully_covered
        assert arq.covered >= plain.covered

    def test_arq_rides_out_flapping(self):
        graph, _ = build_lhg(24, 3)
        source = graph.nodes()[0]
        victim = [v for v in graph.nodes() if v != source][0]
        links = [(victim, w) for w in graph.neighbors(victim)]
        schedule = flapping_links(
            links, period=50.0, down_for=32.0, start=0.5, cycles=2
        )
        result = run_experiment(
            ExperimentSpec("arq-flood", graph, source, failures=schedule)
        ).result
        assert result.fully_covered

    def test_crashed_source_rejected(self):
        graph, _ = build_lhg(24, 3)
        source = graph.nodes()[0]
        from repro.flooding.failures import crash_before_start

        with pytest.raises(SimulationError):
            run_experiment(ExperimentSpec(
                "arq-flood", graph, source, failures=crash_before_start([source]),
            ))

    def test_deterministic(self):
        graph, _ = build_lhg(24, 3)
        source = graph.nodes()[0]
        spec = ExperimentSpec("arq-flood", graph, source, loss_rate=0.3, loss_seed=9)
        a = run_experiment(spec).result
        b = run_experiment(spec).result
        assert a.delivery_times == b.delivery_times
        assert a.messages == b.messages
