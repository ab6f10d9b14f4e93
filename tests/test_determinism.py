"""Reproducibility contract: every simulation is a function of its seeds."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.existence import build_lhg
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.failures import (
    apply_schedule,
    crash_and_recover,
    random_crashes,
    random_flapping_links,
)
from repro.flooding.faults import noisy_links
from repro.flooding.network import ExponentialLatency, Network, UniformLatency
from repro.flooding.protocols.arq import ArqProtocol
from repro.flooding.protocols.reliable import ReliableFloodProtocol
from repro.flooding.simulator import Simulator
from repro.flooding.trace import TraceCollector
from repro.robustness import ChaosCampaign


def identical_results(a, b) -> bool:
    return (
        a.covered == b.covered
        and a.messages == b.messages
        and a.completion_time == b.completion_time
        and a.delivery_times == b.delivery_times
    )


class TestRunDeterminism:
    def test_flood_bitwise_repeatable(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        schedule = random_crashes(graph, 2, seed=5, protect={source})
        spec = ExperimentSpec("flood", graph, source, failures=schedule)
        a = run_experiment(spec).result
        b = run_experiment(spec).result
        assert identical_results(a, b)

    def test_flood_with_random_latency_repeatable(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        a = run_experiment(ExperimentSpec(
            "flood", graph, source, latency=UniformLatency(0.5, 1.5, seed=9),
        )).result
        b = run_experiment(ExperimentSpec(
            "flood", graph, source, latency=UniformLatency(0.5, 1.5, seed=9),
        )).result
        assert identical_results(a, b)

    def test_gossip_repeatable(self):
        graph, _ = build_lhg(24, 3)
        source = graph.nodes()[0]
        spec = ExperimentSpec(
            "gossip", graph, source, seed=3, params={"fanout": 2, "rounds": 8}
        )
        a = run_experiment(spec).result
        b = run_experiment(spec).result
        assert identical_results(a, b)

    def test_treecast_repeatable_under_loss(self):
        graph, _ = build_lhg(24, 3)
        source = graph.nodes()[0]
        spec = ExperimentSpec("treecast", graph, source, loss_rate=0.2, loss_seed=4)
        a = run_experiment(spec).result
        b = run_experiment(spec).result
        assert identical_results(a, b)

    def test_detection_repeatable(self):
        graph, _ = build_lhg(20, 3)
        victim = graph.nodes()[2]
        params = {
            "crashed": (victim,), "crash_time": 10.0, "period": 1.0, "timeout": 2.5,
        }
        a = run_experiment(ExperimentSpec(
            "failure-detection", graph,
            latency=ExponentialLatency(0.1, 1.0, seed=7), params=params,
        )).metric("report")
        # fresh latency model with the same seed for a fair replay
        b = run_experiment(ExperimentSpec(
            "failure-detection", graph,
            latency=ExponentialLatency(0.1, 1.0, seed=7), params=params,
        )).metric("report")
        assert a.detection_delays == b.detection_delays
        assert a.false_suspicions == b.false_suspicions


def chaotic_trace(seed: int) -> list:
    """One fully-chaotic run: loss+dup+reorder, flapping, crash+recover."""
    graph, _ = build_lhg(24, 3)
    source = graph.nodes()[0]
    victims = [v for v in graph.nodes() if v != source][:2]
    schedule = crash_and_recover(victims, crash_at=0.5, recover_at=20.0).merged(
        random_flapping_links(
            graph, 3, period=12.0, down_for=5.0, start=1.0, cycles=2, seed=seed
        )
    )
    simulator = Simulator()
    network = Network(
        graph,
        simulator,
        loss_rate=0.1,
        loss_seed=seed,
        fault_model=noisy_links(drop=0.1, duplicate=0.2, reorder=0.2, seed=seed),
    )
    trace = TraceCollector(keep_payloads=True)
    network.add_observer(trace)
    apply_schedule(schedule, network, simulator)
    protocol = ArqProtocol(
        network, ReliableFloodProtocol(network, source)
    )
    network.attach(protocol, start_nodes=[source])
    simulator.run(max_events=500_000)
    return trace.events


class TestTraceDeterminism:
    def test_chaotic_trace_byte_identical(self):
        # every event — kind, time, endpoints, payload repr — must match
        assert chaotic_trace(3) == chaotic_trace(3)

    def test_chaotic_trace_seed_sensitive(self):
        assert chaotic_trace(1) != chaotic_trace(2)


def trace_digest(events: list) -> str:
    """SHA-256 of a trace's field tuples — stable across record types."""
    fields = [
        (e.kind, e.time, e.sender, e.receiver, e.node, e.detail) for e in events
    ]
    return hashlib.sha256(repr(fields).encode("utf-8")).hexdigest()


# Recorded on the engine with the dataclass-ordered event heap, before
# the tuple-keyed one: an engine change that reorders, adds or drops
# one event changes these.
GOLDEN_TRACES = {
    1: (1664, "cdc085c1543e5e1b9b7b6975e9c51d27841e1adcfcb6543b35420d37d21ccdeb"),
    2: (1618, "4d3a4982437e637d2391973dbe236a658b3ca776c2e99dcdd7d6a657d0b97460"),
    3: (1668, "34a8ae4aef65fd3ad75aee7411df7ab8b9e9dcfc2fb10fde9f6f3a19cc4f9639"),
}

# (scenario, protocol, seed, covered, reachable, messages,
#  retransmissions, completion_time, violations) of the default
# campaign grid on LHG(64, 4), seed 1, recorded on the same engine.
GOLDEN_CAMPAIGN = [
    ("baseline", "reliable-flood", 1, 64, 64, 402, 0, 5.0, ()),
    ("baseline", "arq-reliable-flood", 1, 64, 64, 804, 0, 5.0, ()),
    ("loss-0.1", "reliable-flood", 1, 64, 64, 479, 51, 5.0, ()),
    ("loss-0.1", "arq-reliable-flood", 1, 64, 64, 1126, 107, 6.0, ()),
    ("loss-0.3", "reliable-flood", 1, 64, 64, 677, 198, 10.0, ()),
    ("loss-0.3", "arq-reliable-flood", 1, 64, 64, 2270, 662, 9.0, ()),
    ("dup-reorder", "reliable-flood", 1, 64, 64, 634, 81, 8.0, ()),
    ("dup-reorder", "arq-reliable-flood", 1, 64, 64, 1761, 207, 8.0, ()),
    ("flapping", "reliable-flood", 1, 61, 64, 360, 96, 5.0, ()),
    ("flapping", "arq-reliable-flood", 1, 64, 64, 1196, 376, 33.5, ()),
    ("partition-heal", "reliable-flood", 1, 32, 64, 62, 544, 3.0, ()),
    ("partition-heal", "arq-reliable-flood", 1, 64, 64, 2980, 2448, 43.5, ()),
    ("crash-recover", "reliable-flood", 1, 59, 64, 498, 144, 5.0, ()),
    ("crash-recover", "arq-reliable-flood", 1, 64, 64, 1941, 561, 36.5, ()),
]


class TestPinnedAcrossVersions:
    """Firing order pinned against values recorded on an earlier engine."""

    def test_chaotic_traces_match_golden_digests(self):
        for seed, (length, digest) in GOLDEN_TRACES.items():
            events = chaotic_trace(seed)
            assert (len(events), trace_digest(events)) == (length, digest), seed

    def test_campaign_cells_match_golden_grid(self):
        graph, _ = build_lhg(64, 4)
        matrix = ChaosCampaign([(graph.name, graph)], seeds=(1,)).run()
        cells = [
            (
                c.scenario,
                c.protocol,
                c.seed,
                c.covered,
                c.reachable,
                c.messages,
                c.retransmissions,
                c.completion_time,
                c.violations,
            )
            for c in matrix.cells
        ]
        assert cells == GOLDEN_CAMPAIGN


class TestSeedSensitivity:
    def test_different_latency_seeds_differ(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        a = run_experiment(ExperimentSpec(
            "flood", graph, source, latency=UniformLatency(0.5, 1.5, seed=1),
        )).result
        b = run_experiment(ExperimentSpec(
            "flood", graph, source, latency=UniformLatency(0.5, 1.5, seed=2),
        )).result
        assert a.delivery_times != b.delivery_times

    def test_different_failure_seeds_differ(self):
        graph, _ = build_lhg(30, 3)
        source = graph.nodes()[0]
        a = random_crashes(graph, 3, seed=1, protect={source}).crashed_nodes
        b = random_crashes(graph, 3, seed=2, protect={source}).crashed_nodes
        assert a != b


class TestConstructionDeterminism:
    def test_builders_are_pure_functions(self):
        for rule in ("jenkins-demers", "k-tree", "k-diamond"):
            a, cert_a = build_lhg(14, 3, rule=rule)
            b, cert_b = build_lhg(14, 3, rule=rule)
            assert a == b
            assert cert_a.to_json() == cert_b.to_json()


_HASH_SEED_PROBE = """
from repro.core.existence import build_lhg
from repro.core.routing import menger_witness
from repro.flooding.experiments import ExperimentSpec, run_experiment
from repro.flooding.failures import random_crashes
from repro.flooding.network import ExponentialLatency

graph, cert = build_lhg(20, 3)
nodes = graph.nodes()
source = nodes[0]
spec = ExperimentSpec(
    "treecast", graph, source,
    failures=random_crashes(graph, 2, seed=1, protect={source}),
    latency=ExponentialLatency(0.1, 1.0, seed=4),
)
result = run_experiment(spec).result
print(repr((result.covered, result.messages, result.completion_time,
            sorted(result.delivery_times.items()))))
print(repr(menger_witness(graph, cert, nodes[0], nodes[-1])))
"""


class TestHashSeedIndependence:
    """Tuple labels hash by PYTHONHASHSEED; the results must not."""

    @staticmethod
    def _probe(hash_seed: str) -> str:
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        return completed.stdout

    def test_treecast_and_menger_witness_ignore_the_hash_seed(self):
        # these two hash seeds gave different tree-cast delivery times
        # and a different witness path when both followed set order
        assert self._probe("0") == self._probe("3")
