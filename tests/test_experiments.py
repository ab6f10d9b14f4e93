"""Integration tests for the one-call experiment runners."""

import pytest

import repro.flooding.experiments as experiments
from repro.core.existence import build_lhg
from repro.flooding.experiments import (
    ExperimentSpec,
    repeat_runs,
    run_experiment,
    run_experiments,
)
from repro.flooding.failures import minimum_cut_attack, random_crashes
from repro.flooding.faults import lossy_links
from repro.flooding.network import (
    BandwidthLatency,
    ConstantLatency,
    ExponentialLatency,
    FixedLinkLatency,
    UniformLatency,
)


class TestFloodGuarantees:
    """The paper's headline behavioural claims as executable assertions."""

    @pytest.mark.parametrize("n,k", [(14, 3), (20, 4), (13, 3)])
    def test_full_coverage_under_any_k_minus_1_random_crashes(self, n, k):
        graph, _ = build_lhg(n, k)
        source = graph.nodes()[0]
        for seed in range(15):
            schedule = random_crashes(graph, k - 1, seed=seed, protect={source})
            result = run_experiment(
                ExperimentSpec("flood", graph, source, failures=schedule)
            ).result
            assert result.reachable == result.alive  # graph stayed connected
            assert result.fully_covered

    def test_minimum_cut_attack_partitions_at_k(self):
        graph, _ = build_lhg(14, 3)
        schedule = minimum_cut_attack(graph)
        assert len(schedule.crashed_nodes) == 3
        source = next(
            v for v in graph.nodes() if v not in schedule.crashed_nodes
        )
        result = run_experiment(
            ExperimentSpec("flood", graph, source, failures=schedule)
        ).result
        # k crashes CAN partition: reachable < alive, but flooding still
        # covers the whole reachable side
        assert result.reachable < result.alive
        assert result.fully_covered

    def test_link_failures_tolerated(self):
        from repro.flooding.failures import random_link_failures

        graph, _ = build_lhg(20, 4)
        source = graph.nodes()[0]
        for seed in range(10):
            schedule = random_link_failures(graph, 3, seed=seed)
            result = run_experiment(
                ExperimentSpec("flood", graph, source, failures=schedule)
            ).result
            assert result.fully_covered


class TestRepeatRuns:
    def test_aggregates_count(self):
        graph, _ = build_lhg(12, 3)
        source = graph.nodes()[0]
        agg = repeat_runs(ExperimentSpec("flood", graph, source), None, 5)
        assert agg.runs == 5
        assert agg.mean_delivery_ratio() == 1.0

    def test_schedule_factory_receives_seed(self):
        graph, _ = build_lhg(12, 3)
        source = graph.nodes()[0]
        seeds_seen = []

        def factory(seed):
            seeds_seen.append(seed)
            return random_crashes(graph, 1, seed=seed, protect={source})

        repeat_runs(ExperimentSpec("flood", graph, source), factory, 4)
        assert seeds_seen == [0, 1, 2, 3]

    def test_gossip_gets_fresh_seed_per_run(self):
        graph, _ = build_lhg(20, 3)
        source = graph.nodes()[0]
        agg = repeat_runs(
            ExperimentSpec("gossip", graph, source, params={"fanout": 1, "rounds": 3}),
            None,
            3,
        )
        # different seeds -> usually different coverage; at minimum runs recorded
        assert agg.runs == 3


class TestBaselineContrast:
    def test_treecast_fragile_flood_robust(self):
        graph, _ = build_lhg(24, 3)
        source = graph.nodes()[0]

        def schedule(seed):
            return random_crashes(graph, 2, seed=seed, protect={source})

        flood = repeat_runs(ExperimentSpec("flood", graph, source), schedule, 15)
        tree = repeat_runs(ExperimentSpec("treecast", graph, source), schedule, 15)
        assert flood.min_delivery_ratio() == 1.0
        assert tree.min_delivery_ratio() < 1.0

    def test_gossip_costs_more_messages(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        flood = run_experiment(ExperimentSpec("flood", graph, source)).result
        gossip = run_experiment(ExperimentSpec(
            "gossip", graph, source, seed=0, params={"fanout": 2, "rounds": 10},
        )).result
        assert gossip.messages > 2 * flood.messages


class TestCheckpointKey:
    """A journal answers only for specs with the same latency and faults."""

    @pytest.fixture(scope="class")
    def lhg40(self):
        graph, _ = build_lhg(40, 3)
        return graph, graph.nodes()[0]

    def test_changed_latency_recomputes(self, lhg40, tmp_path):
        graph, source = lhg40
        path = tmp_path / "latency.jsonl"
        slow = ExperimentSpec("flood", graph, source, latency=ConstantLatency(5.0))
        run_experiments([slow], checkpoint=path)
        plain = ExperimentSpec("flood", graph, source)
        resumed = run_experiments([plain], checkpoint=path, resume=True)
        assert resumed == [run_experiment(plain)]
        assert resumed != [run_experiment(slow)]

    @pytest.mark.parametrize("replacement", [None, lossy_links(0.3, seed=2)])
    def test_changed_fault_model_recomputes(self, lhg40, tmp_path, replacement):
        graph, source = lhg40
        path = tmp_path / "faults.jsonl"
        journaled = ExperimentSpec(
            "reliable-flood", graph, source, fault_model=lossy_links(0.3, seed=1)
        )
        run_experiments([journaled], checkpoint=path)
        changed = ExperimentSpec(
            "reliable-flood", graph, source, fault_model=replacement
        )
        resumed = run_experiments([changed], checkpoint=path, resume=True)
        assert resumed == [run_experiment(changed)]
        assert resumed != [run_experiment(journaled)]

    def test_model_without_identity_never_hits(self, lhg40, tmp_path):
        graph, source = lhg40
        path = tmp_path / "weights.jsonl"
        slow = FixedLinkLatency(lambda u, v: 2.0)
        assert slow.identity() is None
        run_experiments(
            [ExperimentSpec("flood", graph, source, latency=slow)], checkpoint=path
        )
        # nothing is journaled under a key that has no stable rendering
        assert not path.exists() or path.read_text() == ""
        fast = ExperimentSpec(
            "flood", graph, source, latency=FixedLinkLatency(lambda u, v: 1.0)
        )
        resumed = run_experiments([fast], checkpoint=path, resume=True)
        assert resumed == [run_experiment(fast)]

    def test_identical_models_resume_without_running(
        self, lhg40, tmp_path, monkeypatch
    ):
        graph, source = lhg40

        def spec():
            return ExperimentSpec(
                "reliable-flood", graph, source,
                latency=UniformLatency(1, 5, seed=3),
                fault_model=lossy_links(0.3, seed=1),
            )

        path = tmp_path / "same.jsonl"
        first = run_experiments([spec()], checkpoint=path)

        def never(spec):
            raise AssertionError("a journaled spec was recomputed")

        monkeypatch.setattr(experiments, "run_experiment", never)
        assert run_experiments([spec()], checkpoint=path, resume=True) == first

    def test_identity_is_parameters_not_state(self):
        models = [
            ConstantLatency(2.0),
            UniformLatency(1, 5, seed=3),
            ExponentialLatency(0.1, 1.0, seed=3),
            BandwidthLatency(1.0, 0.1),
        ]
        for model in models:
            before = model.identity()
            model.sample_at(0, 1, 0.0)
            assert model.identity() == before
            assert before[0] == type(model).__name__
        faults = lossy_links(0.3, seed=1)
        before = faults.identity()
        faults.copies(0, 1)
        assert faults.identity() == before == lossy_links(0.3, seed=1).identity()
        assert before != lossy_links(0.3, seed=2).identity()
        assert UniformLatency(1, 5, seed=3).identity() != (
            UniformLatency(1, 5, seed=4).identity()
        )
