"""Tests for network event tracing."""

import pytest

from repro.core.existence import build_lhg
from repro.flooding.failures import FailureSchedule, apply_schedule
from repro.flooding.network import Network
from repro.flooding.protocols.flood import FloodProtocol
from repro.flooding.simulator import Simulator
from repro.flooding.trace import TraceCollector, TraceEvent
from repro.graphs.generators.classic import cycle_graph, path_graph
from repro.robustness.invariants import RunRecord, check_no_dead_delivery


def traced_flood(graph, source, schedule=None, trace=None, loss_rate=0.0):
    simulator = Simulator()
    network = Network(graph, simulator, loss_rate=loss_rate, loss_seed=1)
    if trace is not None:
        network.add_observer(trace)
    if schedule is not None:
        apply_schedule(schedule, network, simulator)
    protocol = FloodProtocol(network, source)
    network.attach(protocol, start_nodes=[source])
    simulator.run()
    return network


class TestCollection:
    def test_send_deliver_counts_match_stats(self):
        trace = TraceCollector()
        network = traced_flood(cycle_graph(8), 0, trace=trace)
        counts = trace.counts()
        assert counts["send"] == network.stats.messages_sent
        assert counts["deliver"] == network.stats.messages_delivered

    def test_crash_events_recorded(self):
        trace = TraceCollector()
        schedule = FailureSchedule().crash(3, time=1.0)
        traced_flood(cycle_graph(8), 0, schedule=schedule, trace=trace)
        crash = trace.first("crash")
        assert crash is not None
        assert crash.node == 3
        assert crash.time == 1.0

    def test_drop_reasons(self):
        trace = TraceCollector()
        traced_flood(cycle_graph(8), 0, trace=trace, loss_rate=0.5)
        reasons = {e.detail for e in trace.of_kind("drop")}
        assert "loss" in reasons

    def test_link_down_event(self):
        trace = TraceCollector()
        sim = Simulator()
        net = Network(path_graph(2), sim)
        net.add_observer(trace)
        net.fail_link(0, 1)
        assert trace.first("link-down") is not None

    def test_messages_between(self):
        trace = TraceCollector()
        traced_flood(path_graph(4), 0, trace=trace)
        assert len(trace.messages_between(0, 1)) == 1
        assert len(trace.messages_between(1, 2)) == 1
        assert trace.messages_between(3, 0) == []

    def test_payload_capture_optional(self):
        bare = TraceCollector()
        rich = TraceCollector(keep_payloads=True)
        sim = Simulator()
        net = Network(path_graph(2), sim)
        net.add_observer(bare)
        net.add_observer(rich)
        protocol = FloodProtocol(net, 0)
        net.attach(protocol, start_nodes=[0])
        sim.run()
        assert bare.of_kind("send")[0].detail == ""
        assert "FloodMessage" in rich.of_kind("send")[0].detail

    def test_limit_truncates(self):
        trace = TraceCollector(limit=3)
        traced_flood(cycle_graph(10), 0, trace=trace)
        assert len(trace.events) == 3
        assert trace.truncated > 0


class TestRecords:
    """Records keep falsy node ids and explicit ``None`` payloads."""

    def test_crash_and_recover_of_node_zero_keep_the_id(self):
        net = Network(path_graph(3), Simulator())  # int labels 0, 1, 2
        trace = TraceCollector()
        net.add_observer(trace)
        net.crash_node(0)
        net.recover_node(0)
        net.fail_link(0, 1)
        assert [(e.kind, e.node) for e in trace.events] == [
            ("crash", 0),
            ("recover", 0),
            ("link-down", 0),
        ]

    def test_delivery_to_crashed_node_zero_is_a_violation(self):
        graph, sim = path_graph(3), Simulator()
        net = Network(graph, sim)
        trace = TraceCollector()
        net.add_observer(trace)
        net.crash_node(0)
        # a harness bug that delivers to the dead node anyway
        trace("deliver", 1.0, sender=1, receiver=0)
        record = RunRecord(
            graph=graph,
            source=1,
            schedule=None,
            network=net,
            simulator=sim,
            trace=trace,
            protocol=object(),
            result=None,
        )
        violation = check_no_dead_delivery(record)
        assert violation is not None
        assert violation.invariant == "no-dead-delivery"
        assert "node 0 " in violation.detail

    def test_explicit_none_payload_is_recorded(self):
        trace = TraceCollector(keep_payloads=True)
        trace("send", 0.0, sender=0, receiver=1, payload=None)
        trace("send", 0.0, sender=0, receiver=1)
        assert [e.detail for e in trace.events] == ["None", ""]

    def test_records_are_immutable_tuples_with_defaults(self):
        event = TraceEvent("crash", 1.0, node=0)
        assert tuple(event) == ("crash", 1.0, None, None, 0, "")
        with pytest.raises(AttributeError):
            event.node = 1  # type: ignore[misc]


class TestNonPerturbation:
    def test_traced_run_is_bit_identical(self):
        graph, _ = build_lhg(20, 3)
        source = graph.nodes()[0]
        plain = traced_flood(graph, source)
        traced = traced_flood(graph, source, trace=TraceCollector())
        assert plain.delivery_times == traced.delivery_times
        assert plain.stats.messages_sent == traced.stats.messages_sent


class TestAnalysis:
    def test_activity_histogram(self):
        trace = TraceCollector()
        traced_flood(path_graph(5), 0, trace=trace)
        histogram = trace.activity_histogram(bucket=1.0)
        # on a path one message is in flight per unit interval
        assert sum(histogram.values()) == trace.counts()["send"]

    def test_histogram_domain(self):
        with pytest.raises(ValueError):
            TraceCollector().activity_histogram(bucket=0)

    def test_render_timeline(self):
        trace = TraceCollector()
        traced_flood(path_graph(3), 0, trace=trace)
        text = trace.render_timeline(limit=2)
        assert "send" in text
        assert "more events" in text


class TestTruncationAccounting:
    def test_observed_counts_include_truncated_events(self):
        trace = TraceCollector(limit=3)
        traced_flood(cycle_graph(10), 0, trace=trace)
        stored = sum(trace.counts().values())
        observed = sum(trace.observed_counts().values())
        assert stored == 3
        assert observed == stored + trace.truncated_events
        assert trace.truncated_events == trace.truncated > 0

    def test_untruncated_counts_agree(self):
        trace = TraceCollector()
        traced_flood(cycle_graph(8), 0, trace=trace)
        assert trace.truncated_events == 0
        assert trace.counts() == trace.observed_counts()

    def test_summary_calls_out_truncation(self):
        trace = TraceCollector(limit=3)
        traced_flood(cycle_graph(10), 0, trace=trace)
        summary = trace.summary()
        assert str(trace.truncated_events) in summary
        assert "not stored" in summary

    def test_render_timeline_reports_truncated_share(self):
        trace = TraceCollector(limit=3)
        traced_flood(cycle_graph(10), 0, trace=trace)
        text = trace.render_timeline()
        assert "storage limit" in text
        assert str(trace.truncated_events) in text

    def test_export_events_appends_truncation_record(self):
        trace = TraceCollector(limit=3)
        traced_flood(cycle_graph(10), 0, trace=trace)
        records = trace.export_events()
        assert len(records) == 4  # 3 stored + 1 truncation marker
        marker = records[-1]
        assert marker["kind"] == "trace-truncated"
        assert marker["count"] == trace.truncated_events
        assert marker["observed"] == trace.observed_counts()

    def test_export_events_clean_when_not_truncated(self):
        trace = TraceCollector()
        traced_flood(path_graph(4), 0, trace=trace)
        records = trace.export_events()
        assert all(r["kind"] != "trace-truncated" for r in records)
        assert len(records) == len(trace.events)

    def test_write_jsonl_roundtrip(self, tmp_path):
        import json as json_mod

        trace = TraceCollector(limit=3)
        traced_flood(cycle_graph(10), 0, trace=trace)
        path = str(tmp_path / "trace.jsonl")
        count = trace.write_jsonl(path)
        with open(path) as handle:
            lines = [json_mod.loads(line) for line in handle]
        assert len(lines) == count == 4
        assert lines[-1]["kind"] == "trace-truncated"
