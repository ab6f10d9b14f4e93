"""Event-driven flooding simulation: engine, network, failures, protocols.

The paper's motivating application is robust flooding over an LHG
topology.  This package simulates it end-to-end:

* :mod:`repro.flooding.simulator` — deterministic discrete-event engine;
* :mod:`repro.flooding.network` — crash-prone message-passing network
  with pluggable latency models;
* :mod:`repro.flooding.failures` — crash/link-failure schedules and
  adversaries (random, targeted, minimum-cut);
* :mod:`repro.flooding.protocols` — deterministic flooding plus gossip
  and spanning-tree baselines;
* :mod:`repro.flooding.metrics` / :mod:`repro.flooding.experiments` —
  result records and the one experiment entry point,
  ``run_experiment(ExperimentSpec(...))``.
"""

from repro.flooding.experiments import (
    ExperimentSpec,
    RunSummary,
    experiment_names,
    repeat_runs,
    run_experiment,
    run_experiments,
    summarize_run,
)
from repro.flooding.failures import (
    FailureSchedule,
    bisect_groups,
    crash_and_recover,
    crash_before_start,
    flapping_links,
    minimum_cut_attack,
    partition,
    random_crashes,
    random_flapping_links,
    random_link_failures,
    survivors,
    targeted_crashes,
)
from repro.flooding.faults import (
    FaultModel,
    LinkFaultProfile,
    RandomFaultModel,
    lossy_links,
    noisy_links,
)
from repro.flooding.metrics import FloodResult, ResultAggregate, reachable_from
from repro.flooding.network import (
    BandwidthLatency,
    ConstantLatency,
    ExponentialLatency,
    FixedLinkLatency,
    LatencyModel,
    Network,
    NodeApi,
    Protocol,
    UniformLatency,
)
from repro.flooding.simulator import Simulator
from repro.flooding.trace import TraceCollector, TraceEvent

__all__ = [
    "BandwidthLatency",
    "ConstantLatency",
    "ExperimentSpec",
    "ExponentialLatency",
    "FailureSchedule",
    "FaultModel",
    "FixedLinkLatency",
    "FloodResult",
    "LatencyModel",
    "LinkFaultProfile",
    "Network",
    "NodeApi",
    "Protocol",
    "RandomFaultModel",
    "ResultAggregate",
    "RunSummary",
    "Simulator",
    "TraceCollector",
    "TraceEvent",
    "UniformLatency",
    "bisect_groups",
    "crash_and_recover",
    "crash_before_start",
    "experiment_names",
    "flapping_links",
    "lossy_links",
    "minimum_cut_attack",
    "noisy_links",
    "partition",
    "random_crashes",
    "random_flapping_links",
    "random_link_failures",
    "reachable_from",
    "repeat_runs",
    "run_experiment",
    "run_experiments",
    "summarize_run",
    "survivors",
    "targeted_crashes",
]
