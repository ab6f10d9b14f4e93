"""ExperimentSpec / run_experiment: the one experiment entry point.

Three contracts are pinned here:

* every protocol's outputs equal what its per-protocol ``run_*`` shim
  returned before the shims were removed — the values below were
  recorded on the last commit that had them, on LHG(20, 3) with
  crashes, loss and latency wherever the protocol takes them;
* :func:`repeat_runs` over a template spec reproduces the aggregates the
  shim-based repetition harness gave;
* a run is a pure function of its spec: the same spec run twice, or
  fanned across workers, gives equal summaries even when its latency or
  fault model keeps an RNG or link queues.
"""

from __future__ import annotations

import pytest

from repro.core.existence import build_lhg
from repro.errors import SimulationError
from repro.flooding import (
    BandwidthLatency,
    ConstantLatency,
    ExperimentSpec,
    ExponentialLatency,
    FailureSchedule,
    RunSummary,
    UniformLatency,
    crash_before_start,
    experiment_names,
    lossy_links,
    noisy_links,
    random_crashes,
    repeat_runs,
    run_experiment,
    run_experiments,
)
from repro.flooding.protocols.heartbeat import DetectionReport
from repro.flooding.protocols.viewchange import ViewChangeReport
from repro.graphs import ImplicitJDOracle, materialize
from repro.graphs.traversal import shortest_path


@pytest.fixture(scope="module")
def lhg20():
    graph, _ = build_lhg(20, 4)
    return graph


@pytest.fixture(scope="module")
def pinned():
    """LHG(20, 3) and the source the pins were taken on."""
    graph, _ = build_lhg(20, 3)
    return graph, graph.nodes()[0]


# Tree-cast pins run on the integer-labelled JD graph: the BFS tree is
# built from ``Graph.neighbors`` set order, which for the tuple labels of
# ``build_lhg`` depends on ``PYTHONHASHSEED``.
_INT_LHG = materialize(ImplicitJDOracle(20, 3))


def _crashes(graph, source):
    return random_crashes(graph, 2, seed=1, protect={source})


class TestSpecNormalization:
    def test_params_mapping_becomes_sorted_items(self, lhg20):
        spec = ExperimentSpec(
            protocol="gossip", graph=lhg20, params={"rounds": 4, "fanout": 2}
        )
        assert spec.params == (("fanout", 2), ("rounds", 4))
        assert spec.param("rounds") == 4
        assert spec.param("absent", "d") == "d"
        assert spec.params_dict == {"fanout": 2, "rounds": 4}

    def test_equal_specs_compare_equal(self, lhg20):
        a = ExperimentSpec(protocol="flood", graph=lhg20, source=0, seed=3)
        b = ExperimentSpec(
            protocol="flood", graph=lhg20, source=0, seed=3, params={}
        )
        assert a == b

    def test_summary_metric_lookup(self):
        summary = RunSummary(protocol="x", metrics={"hops": 3})
        assert summary.metric("hops") == 3
        assert summary.metric("none", -1) == -1
        assert summary.metrics_dict == {"hops": 3}


class TestDispatch:
    def test_unknown_protocol_raises_with_known_names(self, lhg20):
        spec = ExperimentSpec(protocol="carrier-pigeon", graph=lhg20, source=0)
        with pytest.raises(SimulationError, match="carrier-pigeon"):
            run_experiment(spec)

    def test_experiment_names_cover_the_runner_family(self):
        names = experiment_names()
        for expected in (
            "flood",
            "gossip",
            "treecast",
            "unicast",
            "redundant-unicast",
            "echo",
            "reliable-flood",
            "arq-flood",
            "broadcast-stream",
            "failure-detection",
            "view-change",
        ):
            assert expected in names

    def test_crashed_source_guard(self, lhg20):
        source = lhg20.nodes()[0]
        schedule = FailureSchedule()
        schedule.crash(source, time=0.0)
        spec = ExperimentSpec(
            protocol="flood", graph=lhg20, source=source, failures=schedule
        )
        with pytest.raises(SimulationError, match="crashed at start"):
            run_experiment(spec)


# (protocol, n, alive, reachable, covered, messages, completion_time)
_RESULTS = {
    "flood": ("flood", 20, 18, 18, 18, 37, 13.385920172844774),
    "gossip": ("gossip", 20, 18, 18, 18, 540, 5.0),
    "treecast": ("treecast", 20, 18, 18, 18, 19, 6.516464939281673),
    "reliable-flood": ("reliable-flood", 20, 18, 18, 18, 178, 13.0),
    "arq-flood": ("arq-reliable-flood", 20, 18, 18, 18, 1085, 8.409206726437752),
}
_DELIVERY_TIMES = {
    "flood": {
        ("L", 3): 5.367538662752343, ("L", 4): 5.454739724799781,
        ("L", 6): 5.214332958495838, ("T", 0, 0): 0.0, ("T", 0, 1): 1.9518585083675655,
        ("T", 0, 2): 3.1769169011838074, ("T", 0, 3): 2.479820666192317,
        ("T", 1, 0): 10.742851322372246, ("T", 1, 1): 7.057205420893877,
        ("T", 1, 2): 8.09538698858563, ("T", 1, 3): 9.941997705171786,
        ("T", 2, 0): 13.385920172844774, ("T", 2, 1): 8.923811224928992,
        ("T", 2, 2): 9.560178763593393, ("T", 2, 3): 11.879470306178936,
        ("U", 8, 0): 3.5324926324118135, ("U", 8, 1): 5.469816476598599,
        ("U", 8, 2): 8.515071974453665,
    },
    "gossip": {
        ("L", 3): 2.0, ("L", 4): 2.0, ("L", 6): 2.0, ("T", 0, 0): 0.0, ("T", 0, 1): 1.0,
        ("T", 0, 2): 1.0, ("T", 0, 3): 3.0, ("T", 1, 0): 4.0, ("T", 1, 1): 3.0,
        ("T", 1, 2): 3.0, ("T", 1, 3): 5.0, ("T", 2, 0): 4.0, ("T", 2, 1): 3.0,
        ("T", 2, 2): 4.0, ("T", 2, 3): 5.0, ("U", 8, 0): 4.0, ("U", 8, 1): 5.0,
        ("U", 8, 2): 5.0,
    },
    "treecast": {
        0: 0.0, 1: 0.3692504364792222, 2: 0.20888453353319253, 3: 0.6042775138601955,
        4: 6.516464939281673, 5: 4.804785323392013, 6: 1.346607706640109,
        7: 1.3694927955040577, 8: 5.689842346844723, 9: 3.94657694877307,
        10: 0.8282068099789079, 12: 0.9827312730132189, 14: 0.47727037007812695,
        15: 0.3777150207190346, 16: 1.028184722926948, 17: 0.8938225322907686,
        18: 2.080952668029075, 19: 1.918112366363224,
    },
    "reliable-flood": {
        ("L", 3): 2.0, ("L", 4): 2.0, ("L", 6): 2.0, ("T", 0, 0): 0.0, ("T", 0, 1): 1.0,
        ("T", 0, 2): 1.0, ("T", 0, 3): 1.0, ("T", 1, 0): 7.0, ("T", 1, 1): 6.0,
        ("T", 1, 2): 6.0, ("T", 1, 3): 8.0, ("T", 2, 0): 7.0, ("T", 2, 1): 3.0,
        ("T", 2, 2): 3.0, ("T", 2, 3): 13.0, ("U", 8, 0): 8.0, ("U", 8, 1): 9.0,
        ("U", 8, 2): 9.0,
    },
    "arq-flood": {
        ("L", 3): 2.842026962210457, ("L", 4): 3.1664877501087685,
        ("L", 6): 2.9275823995733283, ("T", 0, 0): 0.0, ("T", 0, 1): 1.4630073578150213,
        ("T", 0, 2): 1.3733119313950422, ("T", 0, 3): 1.1385394125144552,
        ("T", 1, 0): 8.409206726437752, ("T", 1, 1): 4.348296013879439,
        ("T", 1, 2): 6.70179186680884, ("T", 1, 3): 8.202267435489416,
        ("T", 2, 0): 5.90809288618706, ("T", 2, 1): 4.7658567486227525,
        ("T", 2, 2): 4.311247244425976, ("T", 2, 3): 7.274039744158503,
        ("U", 8, 0): 5.162022571436154, ("U", 8, 1): 6.216195774770325,
        ("U", 8, 2): 7.790631699849457,
    },
}

_ECHO_PARENT = {
    ("L", 3): ("T", 0, 1), ("L", 4): ("T", 0, 1), ("L", 5): ("T", 0, 2),
    ("L", 6): ("T", 0, 2), ("L", 7): ("T", 0, 3), ("T", 0, 0): None,
    ("T", 0, 1): ("T", 0, 0), ("T", 0, 2): ("T", 0, 0), ("T", 0, 3): ("T", 0, 0),
    ("T", 1, 0): ("T", 1, 3), ("T", 1, 1): ("L", 3), ("T", 1, 2): ("L", 6),
    ("T", 1, 3): ("L", 7), ("T", 2, 0): ("T", 2, 3), ("T", 2, 1): ("L", 4),
    ("T", 2, 2): ("L", 6), ("T", 2, 3): ("L", 7), ("U", 8, 0): ("T", 0, 3),
    ("U", 8, 1): ("U", 8, 0), ("U", 8, 2): ("U", 8, 0),
}
_ECHO_CRASHED_PARENT = {
    ("L", 3): ("T", 0, 1), ("L", 4): ("T", 0, 1), ("L", 6): ("T", 0, 2),
    ("T", 0, 0): None, ("T", 0, 1): ("T", 0, 0), ("T", 0, 2): ("T", 0, 0),
    ("T", 0, 3): ("T", 0, 0), ("T", 1, 0): ("T", 1, 1), ("T", 1, 1): ("L", 4),
    ("T", 1, 2): ("L", 6), ("T", 1, 3): ("U", 8, 1), ("T", 2, 0): ("T", 2, 3),
    ("T", 2, 1): ("L", 4), ("T", 2, 2): ("L", 6), ("T", 2, 3): ("U", 8, 2),
    ("U", 8, 0): ("T", 0, 3), ("U", 8, 1): ("U", 8, 0), ("U", 8, 2): ("U", 8, 0),
}
_ECHO_CRASHED_PENDING = {
    ("L", 6): (("T", 1, 2), ("T", 2, 2)), ("T", 0, 0): (("T", 0, 2), ("T", 0, 3)),
    ("T", 0, 2): (("L", 5), ("L", 6)), ("T", 0, 3): (("L", 7), ("U", 8, 0)),
    ("T", 1, 2): (("L", 5),), ("T", 1, 3): (("L", 7),), ("T", 2, 2): (("L", 5),),
    ("T", 2, 3): (("L", 7),), ("U", 8, 0): (("U", 8, 1), ("U", 8, 2)),
    ("U", 8, 1): (("T", 1, 3),), ("U", 8, 2): (("T", 2, 3),),
}


def _coverage_spec(name, graph, source):
    crashes = _crashes(graph, source)
    return {
        "flood": ExperimentSpec(
            "flood", graph, source, failures=crashes,
            latency=UniformLatency(1, 5, seed=3),
        ),
        "gossip": ExperimentSpec(
            "gossip", graph, source, seed=7, failures=crashes, loss_rate=0.1,
            loss_seed=2, params={"fanout": 3, "rounds": 10},
        ),
        "treecast": ExperimentSpec(
            "treecast", _INT_LHG, 0,
            failures=random_crashes(_INT_LHG, 2, seed=1, protect={0}),
            latency=ExponentialLatency(0.1, 1.0, seed=4),
        ),
        "reliable-flood": ExperimentSpec(
            "reliable-flood", graph, source, failures=crashes, loss_rate=0.3,
            loss_seed=5, fault_model=lossy_links(0.1, seed=1),
        ),
        "arq-flood": ExperimentSpec(
            "arq-flood", graph, source, failures=crashes,
            latency=UniformLatency(1, 2, seed=9), loss_rate=0.2, loss_seed=3,
            fault_model=noisy_links(duplicate=0.1, reorder=0.2, seed=2),
        ),
    }[name]


class TestShimParity:
    """Each protocol returns what its removed ``run_*`` shim returned."""

    @staticmethod
    def _check_coverage(pinned, name):
        graph, source = pinned
        result = run_experiment(_coverage_spec(name, graph, source)).result
        fields = (
            result.protocol,
            result.n,
            result.alive,
            result.reachable,
            result.covered,
            result.messages,
            result.completion_time,
        )
        assert fields == _RESULTS[name]
        assert result.delivery_times == _DELIVERY_TIMES[name]

    def test_flood(self, pinned):
        self._check_coverage(pinned, "flood")

    def test_gossip(self, pinned):
        self._check_coverage(pinned, "gossip")

    def test_treecast(self, pinned):
        self._check_coverage(pinned, "treecast")

    def test_reliable_flood(self, pinned):
        self._check_coverage(pinned, "reliable-flood")

    def test_arq_flood(self, pinned):
        self._check_coverage(pinned, "arq-flood")

    def test_unicast(self, pinned):
        graph, source = pinned
        path = shortest_path(graph, source, graph.nodes()[-1])
        off_path = next(v for v in graph.nodes() if v not in path)
        summary = run_experiment(ExperimentSpec(
            "unicast", graph, failures=crash_before_start([off_path]),
            latency=ConstantLatency(1.5), params={"path": path},
        ))
        assert summary.metrics_dict == {"delivered_at": 4.5, "hops": 3}

    def test_redundant_unicast(self, pinned):
        graph, _ = pinned
        paths = [
            [("T", 0, 0), ("T", 0, 3), ("U", 8, 0), ("U", 8, 2)],
            [
                ("T", 0, 0), ("T", 0, 2), ("L", 5), ("T", 1, 2), ("T", 1, 0),
                ("T", 1, 3), ("U", 8, 1), ("U", 8, 2),
            ],
            [
                ("T", 0, 0), ("T", 0, 1), ("L", 4), ("T", 2, 1), ("T", 2, 0),
                ("T", 2, 3), ("U", 8, 2),
            ],
        ]
        summary = run_experiment(ExperimentSpec(
            "redundant-unicast", graph, failures=crash_before_start([paths[0][1]]),
            latency=UniformLatency(1, 2, seed=5), params={"paths": paths},
        ))
        assert summary.metrics_dict == {
            "copies": 2, "delivered_at": 10.41011472127173, "messages": 14,
        }

    def test_broadcast_stream(self, pinned):
        graph, source = pinned
        summary = run_experiment(ExperimentSpec(
            "broadcast-stream", graph, source, latency=BandwidthLatency(1.0, 0.1),
            params={"count": 4, "interval": 0.5},
        ))
        assert summary.metrics_dict == {
            "fully_covered": True, "makespan": 7.4, "messages": 164,
        }

    def test_failure_detection(self, pinned):
        graph, _ = pinned
        nodes = graph.nodes()
        summary = run_experiment(ExperimentSpec(
            "failure-detection", graph, latency=UniformLatency(0.5, 1.5, seed=1),
            loss_rate=0.05, loss_seed=4,
            params={
                "crashed": (nodes[3], nodes[7]), "crash_time": 5.0, "horizon": 30.0,
            },
        ))
        assert summary.metrics_dict == {
            "report": DetectionReport(
                crashed=frozenset({("T", 0, 3), ("T", 1, 3)}),
                detection_delays=(3.5, 3.5, 3.5, 4.5, 4.5, 4.5),
                missed_observers=0,
                false_suspicions=0,
                heartbeats_sent=1704,
            )
        }

    def test_view_change(self, pinned):
        graph, source = pinned
        nodes = graph.nodes()
        summary = run_experiment(ExperimentSpec(
            "view-change", graph, source, latency=ConstantLatency(1.0),
            params={"crashed": (nodes[4], nodes[9]), "crash_time": 5.0},
        ))
        assert summary.metrics_dict == {
            "report": ViewChangeReport(
                decided_at=14.5,
                decision_delay=9.5,
                adopters=18,
                survivors=18,
                last_adoption=18.5,
                correct_membership=True,
            )
        }

    def test_echo(self, pinned):
        # the shim returned the protocol object; its completion time,
        # parent tree and pending echoes now ride in the summary
        graph, source = pinned
        summary = run_experiment(ExperimentSpec(
            "echo", graph, source, latency=UniformLatency(1, 3, seed=6)
        ))
        assert summary.metrics_dict == {
            "aggregate": 20,
            "completed": True,
            "completed_at": 20.978620383791256,
            "parent": _ECHO_PARENT,
            "pending": {},
        }

    def test_echo_under_crashes(self, pinned):
        graph, source = pinned
        summary = run_experiment(ExperimentSpec(
            "echo", graph, source, failures=_crashes(graph, source),
            latency=UniformLatency(1, 3, seed=6),
        ))
        pending = {
            node: tuple(sorted(waiting))
            for node, waiting in summary.metric("pending").items()
        }
        assert summary.metric("completed") is False
        assert summary.metric("completed_at") is None
        assert summary.metric("aggregate") is None
        assert summary.metric("parent") == _ECHO_CRASHED_PARENT
        assert pending == _ECHO_CRASHED_PENDING


# (alive, reachable, covered, messages, completion_time) per repetition
_AGGREGATES = {
    "flood": [
        (18, 18, 18, 37, 4.0), (18, 18, 18, 37, 4.0), (18, 18, 18, 37, 4.0),
        (18, 18, 18, 37, 7.0),
    ],
    "gossip": [
        (20, 20, 20, 320, 5.0), (20, 20, 20, 320, 5.0), (20, 20, 20, 320, 5.0),
        (20, 20, 20, 320, 4.0),
    ],
    "treecast": [
        (18, 18, 14, 15, 4.0), (18, 18, 18, 19, 4.0), (18, 18, 18, 19, 4.0),
        (18, 18, 16, 17, 4.0),
    ],
    "reliable-flood": [
        (18, 18, 18, 126, 4.0), (18, 18, 18, 167, 9.0), (18, 18, 18, 160, 7.0),
        (18, 18, 18, 148, 15.0),
    ],
    "arq-flood": [
        (18, 18, 18, 616, 4.0), (18, 18, 18, 845, 6.0), (18, 18, 18, 838, 5.5),
        (18, 18, 18, 818, 7.0),
    ],
}


class TestRepeatRunsPinned:
    @pytest.mark.parametrize("name", sorted(_AGGREGATES))
    def test_aggregate_pinned(self, pinned, name):
        graph, source = pinned
        template = {
            "flood": ExperimentSpec("flood", graph, source),
            "gossip": ExperimentSpec(
                "gossip", graph, source, params={"fanout": 2, "rounds": 8}
            ),
            "treecast": ExperimentSpec("treecast", _INT_LHG, 0),
            "reliable-flood": ExperimentSpec(
                "reliable-flood", graph, source, loss_rate=0.3
            ),
            "arq-flood": ExperimentSpec("arq-flood", graph, source, loss_rate=0.2),
        }[name]

        def factory(seed):
            if name == "gossip":
                return None
            return random_crashes(
                template.graph, 2, seed=seed, protect={template.source}
            )

        aggregate = repeat_runs(template, factory, 4)
        assert [
            (r.alive, r.reachable, r.covered, r.messages, r.completion_time)
            for r in aggregate.results
        ] == _AGGREGATES[name]



class TestRepeatRunsWorkers:
    def test_parallel_repetitions_match_serial(self, lhg20):
        source = lhg20.nodes()[0]

        def factory(seed):
            return random_crashes(lhg20, 3, seed=seed, protect={source})

        spec = ExperimentSpec("flood", lhg20, source)
        serial = repeat_runs(spec, factory, 6)
        fanned = repeat_runs(spec, factory, 6, workers=2)
        assert fanned.results == serial.results

    def test_parallel_gossip_seed_injection_matches_serial(self, lhg20):
        spec = ExperimentSpec(
            "gossip", lhg20, lhg20.nodes()[0], params={"fanout": 2, "rounds": 8}
        )
        serial = repeat_runs(spec, None, 5)
        fanned = repeat_runs(spec, None, 5, workers=3)
        assert fanned.results == serial.results


_STATEFUL_MODELS = ("uniform", "exponential", "bandwidth", "random-faults")


def _stateful_specs():
    """One spec per stateful model, on LHG(40, 3)."""
    graph, _ = build_lhg(40, 3)
    source = graph.nodes()[0]
    return {
        "uniform": ExperimentSpec(
            "flood", graph, source, latency=UniformLatency(1, 5, seed=3)
        ),
        "exponential": ExperimentSpec(
            "flood", graph, source, latency=ExponentialLatency(0.1, 1.0, seed=3)
        ),
        "bandwidth": ExperimentSpec(
            "broadcast-stream", graph, source, latency=BandwidthLatency(1.0, 0.1),
            params={"count": 3},
        ),
        "random-faults": ExperimentSpec(
            "reliable-flood", graph, source, fault_model=lossy_links(0.3, seed=1)
        ),
    }


class TestSpecPurity:
    """A spec's latency and fault models are never advanced by a run."""

    @pytest.mark.parametrize("model", _STATEFUL_MODELS)
    def test_same_spec_twice_gives_equal_summaries(self, model):
        spec = _stateful_specs()[model]
        first = run_experiment(spec)
        assert run_experiment(spec) == first
        if first.result is not None:
            assert run_experiment(spec).result.delivery_times == (
                first.result.delivery_times
            )

    @pytest.mark.parametrize("model", _STATEFUL_MODELS)
    def test_serial_equals_parallel(self, model):
        specs = [_stateful_specs()[model]] * 4
        serial = list(run_experiments(specs, workers=1))
        assert list(run_experiments(specs, workers=2)) == serial
        assert all(summary == serial[0] for summary in serial)
