"""Tests for the store-and-forward bandwidth model and stream flooding."""

from dataclasses import replace

import pytest

from repro.core.existence import build_lhg
from repro.errors import SimulationError
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.network import BandwidthLatency
from repro.graphs.generators.classic import path_graph, star_graph
from repro.graphs.generators.harary import harary_graph


class TestBandwidthLatency:
    def test_parameters_validated(self):
        with pytest.raises(SimulationError):
            BandwidthLatency(service=0.0)
        with pytest.raises(SimulationError):
            BandwidthLatency(service=1.0, propagation=-1.0)

    def test_idle_link_takes_service_plus_propagation(self):
        model = BandwidthLatency(service=2.0, propagation=0.5)
        assert model.sample_at(0, 1, now=10.0) == 2.5

    def test_busy_link_queues_fifo(self):
        model = BandwidthLatency(service=1.0, propagation=0.0)
        first = model.sample_at(0, 1, now=0.0)
        second = model.sample_at(0, 1, now=0.0)
        third = model.sample_at(0, 1, now=0.0)
        assert (first, second, third) == (1.0, 2.0, 3.0)

    def test_directions_are_independent(self):
        model = BandwidthLatency(service=1.0, propagation=0.0)
        assert model.sample_at(0, 1, now=0.0) == 1.0
        assert model.sample_at(1, 0, now=0.0) == 1.0  # no queueing

    def test_link_drains_over_time(self):
        model = BandwidthLatency(service=1.0, propagation=0.0)
        model.sample_at(0, 1, now=0.0)
        # after the link went idle, a later message pays only service
        assert model.sample_at(0, 1, now=10.0) == 1.0

    def test_stateless_sample_rejected(self):
        with pytest.raises(SimulationError):
            BandwidthLatency().sample(0, 1)


class TestSingleFloodUnderBandwidth:
    def test_path_serialises(self):
        g = path_graph(4)
        result = run_experiment(
            ExperimentSpec("flood", g, 0, latency=BandwidthLatency(1.0, 0.0))
        ).result
        # one message per link, no contention: 3 hops
        assert result.completion_time == 3.0
        assert result.fully_covered

    def test_star_source_bottleneck(self):
        # flooding FROM the hub: leaves are on distinct links -> parallel
        g = star_graph(5)
        result = run_experiment(
            ExperimentSpec("flood", g, 0, latency=BandwidthLatency(1.0, 0.0))
        ).result
        assert result.completion_time == 1.0


class TestBroadcastStream:
    def test_single_message_matches_flood(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        stream = run_experiment(ExperimentSpec(
            "broadcast-stream", graph, source, latency=BandwidthLatency(1.0, 0.1),
            params={"count": 1},
        ))
        assert stream.metric("fully_covered")
        flood = run_experiment(
            ExperimentSpec("flood", graph, source, latency=BandwidthLatency(1.0, 0.1))
        ).result
        assert stream.metric("makespan") == flood.completion_time

    def test_pipeline_cost_is_linear_in_messages(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        stream = ExperimentSpec(
            "broadcast-stream", graph, source, latency=BandwidthLatency(1.0, 0.1)
        )
        one = run_experiment(replace(stream, params={"count": 1}))
        many = run_experiment(replace(stream, params={"count": 9}))
        assert many.metric("fully_covered")
        # pipelining: each extra message adds ~1 service time, not a
        # whole broadcast latency
        assert many.metric("makespan") == pytest.approx(
            one.metric("makespan") + 8 * 1.0
        )

    def test_interval_staggering(self):
        graph, _ = build_lhg(14, 3)
        source = graph.nodes()[0]
        stream = ExperimentSpec(
            "broadcast-stream", graph, source, latency=BandwidthLatency(1.0, 0.0)
        )
        staggered = run_experiment(
            replace(stream, params={"count": 3, "interval": 5.0})
        )
        assert staggered.metric("fully_covered")
        one = run_experiment(replace(stream, params={"count": 1}))
        # with a generous interval there is no contention: last message
        # finishes at 2*interval + single-broadcast latency
        assert staggered.metric("makespan") == pytest.approx(
            10.0 + one.metric("makespan")
        )

    def test_latency_advantage_persists_under_bandwidth(self):
        n, k, messages = 64, 4, 8
        lhg, _ = build_lhg(n, k)
        harary = harary_graph(k, n)
        lhg_run, harary_run = (
            run_experiment(ExperimentSpec(
                "broadcast-stream", graph, source,
                latency=BandwidthLatency(1.0, 0.1), params={"count": messages},
            ))
            for graph, source in ((lhg, lhg.nodes()[0]), (harary, 0))
        )
        assert lhg_run.metric("fully_covered") and harary_run.metric("fully_covered")
        assert lhg_run.metric("makespan") < harary_run.metric("makespan") / 1.5
