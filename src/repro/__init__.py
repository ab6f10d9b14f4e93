"""Logarithmic Harary Graphs — a reproduction of Jenkins & Demers (ICDCS 2001).

LHGs are communication topologies for robust, efficient flooding: they
are k-node-connected, k-link-connected, link-minimal (Harary-optimal
edge counts) **and** have O(log n) diameter, so a flood survives any
k − 1 failures, costs the fewest possible messages, and completes in
logarithmically many hops.

Quickstart::

    from repro import ExperimentSpec, build_lhg, check_lhg, run_experiment

    graph, certificate = build_lhg(n=100, k=4)
    report = check_lhg(graph, k=4)
    assert report.is_lhg
    spec = ExperimentSpec("flood", graph, source=graph.nodes()[0])
    result = run_experiment(spec).result
    print(result.completion_time, result.messages)

Package map:

* :mod:`repro.graphs` — self-contained graph substrate (structure,
  connectivity, Harary baseline, generators);
* :mod:`repro.core` — the LHG constructions, property verifier,
  certificates and routing;
* :mod:`repro.flooding` — discrete-event flooding simulator with
  failure injection and baseline protocols;
* :mod:`repro.overlay` — dynamic-membership maintenance under churn;
* :mod:`repro.analysis` — sweeps, tables, shape statistics for the
  benchmark harness;
* :mod:`repro.robustness` — chaos campaigns: scenario × protocol
  resilience matrices with invariant checks;
* :mod:`repro.exec` — the execution engine: deterministic parallel
  fan-out (``workers=``) and memoized graph construction;
* :mod:`repro.lint` — static determinism & fork-safety analysis: the
  AST rule set behind ``repro lint`` that keeps the byte-identical
  reproducibility invariant checkable before anything runs.
"""

from repro.core.existence import build_lhg, exists, regular_exists
from repro.core.jenkins_demers import is_jd_constructible, jenkins_demers_graph
from repro.core.kdiamond import kdiamond_graph
from repro.core.ktree import ktree_graph
from repro.core.properties import LHGReport, check_lhg, is_lhg
from repro.errors import (
    ConstructionError,
    GraphError,
    InfeasiblePairError,
    ReproError,
    SimulationError,
)
from repro.exec import WorkerPool, build_lhg_cached
from repro.flooding.experiments import (
    ExperimentSpec,
    RunSummary,
    run_experiment,
)
from repro.graphs.generators.harary import harary_graph
from repro.graphs.graph import Graph
from repro.lint import LintConfig, run_lint
from repro.robustness import (
    ChaosCampaign,
    ResilienceMatrix,
    TopologySpec,
    standard_protocols,
    standard_scenarios,
)

__version__ = "1.0.0"

__all__ = [
    "ChaosCampaign",
    "ConstructionError",
    "ExperimentSpec",
    "Graph",
    "GraphError",
    "InfeasiblePairError",
    "LHGReport",
    "LintConfig",
    "ReproError",
    "ResilienceMatrix",
    "RunSummary",
    "SimulationError",
    "TopologySpec",
    "WorkerPool",
    "__version__",
    "build_lhg",
    "build_lhg_cached",
    "check_lhg",
    "exists",
    "harary_graph",
    "is_jd_constructible",
    "is_lhg",
    "jenkins_demers_graph",
    "kdiamond_graph",
    "ktree_graph",
    "regular_exists",
    "run_experiment",
    "run_lint",
    "standard_protocols",
    "standard_scenarios",
]
