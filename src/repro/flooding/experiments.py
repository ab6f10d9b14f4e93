"""High-level experiments: one spec = one simulated dissemination.

The unit of this module is the :class:`ExperimentSpec` — a frozen,
declarative description of one run (protocol name, topology, source,
seed, parameters) — and the single dispatcher
:func:`run_experiment(spec) <run_experiment>` that executes it and
returns a :class:`RunSummary`.  One spec type for every protocol is
what lets the execution engine (:mod:`repro.exec`) fan a grid of runs
across worker processes: a spec is plain data, a cell is
``run_experiment`` applied to it, and the result is a pure function of
the spec.

There is no other way to run an experiment: a single run is
``run_experiment(ExperimentSpec("flood", graph, source)).result``, a
batch is :func:`run_experiments`, and seeded repetitions of one
template spec are :func:`repeat_runs`.  Every number in EXPERIMENTS.md
traces back to one of these three calls.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import repro.obs as obs
from repro.errors import SimulationError
from repro.flooding.failures import FailureSchedule, apply_schedule, survivors
from repro.flooding.faults import FaultModel
from repro.flooding.metrics import FloodResult, ResultAggregate, reachable_from
from repro.flooding.network import LatencyModel, Network
from repro.flooding.protocols.flood import FloodProtocol
from repro.flooding.protocols.gossip import PushGossipProtocol
from repro.flooding.protocols.treecast import TreeCastProtocol
from repro.flooding.simulator import Simulator
from repro.graphs.graph import Graph

NodeId = Hashable

# Generous ceiling: flooding sends < 2m messages, gossip fanout*rounds*n.
_EVENT_BUDGET_FACTOR = 50


def _event_budget(graph) -> int:
    from repro.graphs.oracle import oracle_num_edges

    return _EVENT_BUDGET_FACTOR * (
        graph.num_nodes() + oracle_num_edges(graph) + 100
    )


def _freeze_items(value: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalize a mapping / item-iterable to a sorted item tuple."""
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = tuple(value)
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run.

    Attributes
    ----------
    protocol:
        Registered experiment name (see :func:`experiment_names`), e.g.
        ``"flood"``, ``"gossip"``, ``"arq-flood"``.
    graph:
        The topology to run on.
    source:
        Originating node (protocol-specific meaning; ``None`` for
        experiments that derive it from parameters, e.g. unicast takes
        its source from the routed path).
    seed:
        Protocol-level randomness seed (gossip peer sampling etc.).
    failures / latency / loss_rate / loss_seed / fault_model:
        The adversary and network model, shared by every protocol.
    params:
        Protocol-specific parameters as a sorted item tuple (mappings
        passed to the constructor are normalized automatically), e.g.
        ``{"fanout": 3, "rounds": 12}`` for gossip.
    """

    protocol: str
    graph: Graph
    source: Optional[NodeId] = None
    seed: int = 0
    failures: Optional[FailureSchedule] = None
    latency: Optional[LatencyModel] = None
    loss_rate: float = 0.0
    loss_seed: int = 0
    fault_model: Optional[FaultModel] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze_items(self.params))

    def param(self, name: str, default: Any = None) -> Any:
        """Look one protocol-specific parameter up."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def params_dict(self) -> Dict[str, Any]:
        """The protocol-specific parameters as a fresh dict."""
        return dict(self.params)


@dataclass(frozen=True)
class RunSummary:
    """What one executed spec produced.

    ``result`` is the :class:`FloodResult` for coverage-style protocols
    (``None`` for point-to-point and report-style experiments);
    ``metrics`` carries protocol-specific extras as a sorted item tuple
    (``delivered_at`` and ``hops`` for unicast; ``completed``,
    ``completed_at``, ``aggregate``, the ``parent`` tree and the
    ``pending`` echoes for echo; the ``report`` of the failure-detection
    and view-change runs; …).  Summaries are plain, comparable data —
    two identical specs must yield equal summaries, which is what the
    parallel-determinism tests pin down.
    """

    protocol: str
    result: Optional[FloodResult] = None
    metrics: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", _freeze_items(self.metrics))

    def metric(self, name: str, default: Any = None) -> Any:
        """Look one protocol-specific metric up."""
        for key, value in self.metrics:
            if key == name:
                return value
        return default

    @property
    def metrics_dict(self) -> Dict[str, Any]:
        """The metrics as a fresh dict."""
        return dict(self.metrics)


# ----------------------------------------------------------------------
# Dispatch machinery
# ----------------------------------------------------------------------

# name -> handler(spec) -> RunSummary
_HANDLERS: Dict[str, Callable[[ExperimentSpec], RunSummary]] = {}


def _handler(name: str):
    def register(fn):
        _HANDLERS[name] = fn
        return fn

    return register


def experiment_names() -> Tuple[str, ...]:
    """Every protocol name :func:`run_experiment` can dispatch."""
    return tuple(sorted(_HANDLERS))


def run_experiment(spec: ExperimentSpec) -> RunSummary:
    """Execute one :class:`ExperimentSpec` and summarize it.

    This is the single entry point the execution engine fans out:
    ``pool.map(run_experiment, specs)`` runs a whole grid.

    Raises
    ------
    SimulationError
        For unknown protocol names, vacuous setups (source crashed at
        start) or exceeded event budgets.
    """
    handler = _HANDLERS.get(spec.protocol)
    if handler is None:
        known = ", ".join(experiment_names())
        raise SimulationError(
            f"unknown experiment protocol {spec.protocol!r}; known: {known}"
        )
    with obs.span(
        "protocol-run",
        protocol=spec.protocol,
        n=spec.graph.num_nodes(),
        seed=spec.seed,
    ):
        return handler(spec)


def _schedule(spec: ExperimentSpec) -> FailureSchedule:
    return spec.failures or FailureSchedule()


def _guard_source(spec: ExperimentSpec, schedule: FailureSchedule, word: str) -> None:
    if any(c.node == spec.source and c.time <= 0 for c in schedule.crashes):
        raise SimulationError(f"the {word} source is crashed at start")


def _network(
    spec: ExperimentSpec,
    simulator: Simulator,
    schedule: Optional[FailureSchedule],
    latency: bool = True,
    loss: bool = True,
    faults: bool = True,
) -> Network:
    """Build the network a spec describes and apply its schedule.

    The network gets its own copy of the spec's latency and fault
    models: both may carry an RNG or link queues that every message
    advances, and a run must never advance the spec's objects, or the
    same spec would give a different result the second time.
    """
    network = Network(
        spec.graph,
        simulator,
        latency=copy.deepcopy(spec.latency) if latency else None,
        loss_rate=spec.loss_rate if loss else 0.0,
        loss_seed=spec.loss_seed if loss else 0,
        fault_model=copy.deepcopy(spec.fault_model) if faults else None,
    )
    if schedule is not None:
        apply_schedule(schedule, network, simulator)
    return network


def summarize_run(
    protocol_name: str,
    graph: Graph,
    source: NodeId,
    schedule: FailureSchedule,
    network: Network,
) -> FloodResult:
    """Condense one finished simulation into a :class:`FloodResult`.

    The coverage denominator is the survivor component: nodes reachable
    from ``source`` in the topology left by the schedule's *final*
    state (crashed-and-recovered nodes count as survivors).  Shared by
    the runners below and the chaos campaign engine
    (:mod:`repro.robustness`).
    """
    obs.record_network(network)
    alive_graph = survivors(graph, schedule)
    reachable = reachable_from(alive_graph, source)
    covered = {
        node for node in network.delivery_times if network.is_alive(node)
    }
    times = {
        node: t for node, t in network.delivery_times.items() if node in covered
    }
    completion = max(times.values()) if times else None
    return FloodResult(
        protocol=protocol_name,
        n=graph.number_of_nodes(),
        alive=alive_graph.number_of_nodes(),
        reachable=len(reachable),
        covered=len(covered),
        messages=network.stats.messages_sent,
        completion_time=completion,
        delivery_times=times,
    )


def _coverage_summary(
    spec: ExperimentSpec, name: str, schedule: FailureSchedule, network: Network
) -> RunSummary:
    result = summarize_run(name, spec.graph, spec.source, schedule, network)
    return RunSummary(protocol=spec.protocol, result=result)


# ----------------------------------------------------------------------
# Experiment handlers (one per protocol name)
# ----------------------------------------------------------------------


@_handler("flood")
def _exec_flood(spec: ExperimentSpec) -> RunSummary:
    schedule = _schedule(spec)
    _guard_source(spec, schedule, "flood")
    simulator = Simulator()
    network = _network(spec, simulator, schedule)
    protocol = FloodProtocol(network, spec.source)
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(max_events=_event_budget(spec.graph))
    return _coverage_summary(spec, "flood", schedule, network)


@_handler("gossip")
def _exec_gossip(spec: ExperimentSpec) -> RunSummary:
    schedule = _schedule(spec)
    _guard_source(spec, schedule, "gossip")
    fanout = spec.param("fanout", 2)
    rounds = spec.param("rounds", 16)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, faults=False)
    protocol = PushGossipProtocol(
        network, spec.source, fanout=fanout, rounds=rounds, seed=spec.seed
    )
    network.attach(protocol, start_nodes=spec.graph.nodes())
    simulator.run(max_events=_event_budget(spec.graph) * max(1, rounds))
    return _coverage_summary(spec, "gossip", schedule, network)


@_handler("treecast")
def _exec_treecast(spec: ExperimentSpec) -> RunSummary:
    schedule = _schedule(spec)
    _guard_source(spec, schedule, "treecast")
    simulator = Simulator()
    network = _network(spec, simulator, schedule, faults=False)
    protocol = TreeCastProtocol(network, spec.graph, spec.source)
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(max_events=_event_budget(spec.graph))
    return _coverage_summary(spec, "treecast", schedule, network)


@_handler("unicast")
def _exec_unicast(spec: ExperimentSpec) -> RunSummary:
    from repro.flooding.protocols.unicast import SourceRoutedUnicast

    schedule = _schedule(spec)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, loss=False, faults=False)
    protocol = SourceRoutedUnicast(network, spec.param("path"))
    network.attach(protocol, start_nodes=[protocol.source])
    simulator.run(max_events=_event_budget(spec.graph))
    return RunSummary(
        protocol=spec.protocol,
        metrics={
            "delivered_at": protocol.delivered_at,
            "hops": protocol.hops_taken,
        },
    )


@_handler("redundant-unicast")
def _exec_redundant_unicast(spec: ExperimentSpec) -> RunSummary:
    from repro.flooding.protocols.unicast import RedundantUnicast

    schedule = _schedule(spec)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, loss=False, faults=False)
    protocol = RedundantUnicast(network, spec.param("paths"))
    network.attach(protocol, start_nodes=[protocol.source])
    simulator.run(max_events=_event_budget(spec.graph))
    return RunSummary(
        protocol=spec.protocol,
        metrics={
            "delivered_at": protocol.delivered_at,
            "copies": protocol.copies_received,
            "messages": protocol.messages_sent,
        },
    )


@_handler("echo")
def _exec_echo(spec: ExperimentSpec) -> RunSummary:
    from repro.flooding.protocols.echo import EchoProtocol

    schedule = _schedule(spec)
    _guard_source(spec, schedule, "echo")
    simulator = Simulator()
    network = _network(spec, simulator, schedule, loss=False, faults=False)
    protocol = EchoProtocol(
        network,
        spec.source,
        value_of=spec.param("value_of", lambda node: 1),
        combine=spec.param("combine", lambda a, b: a + b),
    )
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(max_events=_event_budget(spec.graph))
    return RunSummary(
        protocol=spec.protocol,
        metrics={
            "completed": protocol.completed,
            "completed_at": protocol.completed_at,
            "aggregate": protocol.aggregate,
            "parent": dict(protocol.parent),
            "pending": protocol.echoes_pending(),
        },
    )


@_handler("reliable-flood")
def _exec_reliable_flood(spec: ExperimentSpec) -> RunSummary:
    from repro.flooding.protocols.reliable import ReliableFloodProtocol

    schedule = _schedule(spec)
    _guard_source(spec, schedule, "flood")
    max_retries = spec.param("max_retries", 8)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, latency=False)
    protocol = ReliableFloodProtocol(
        network,
        spec.source,
        retry_timeout=spec.param("retry_timeout", 3.0),
        max_retries=max_retries,
    )
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(max_events=_event_budget(spec.graph) * (max_retries + 2))
    return _coverage_summary(spec, "reliable-flood", schedule, network)


@_handler("arq-flood")
def _exec_arq_flood(spec: ExperimentSpec) -> RunSummary:
    from repro.flooding.protocols.arq import ArqProtocol
    from repro.flooding.protocols.reliable import ReliableFloodProtocol

    schedule = _schedule(spec)
    _guard_source(spec, schedule, "flood")
    max_retries = spec.param("max_retries", 10)
    inner_retries = spec.param("inner_retries", 8)
    simulator = Simulator()
    network = _network(spec, simulator, schedule)
    inner = ReliableFloodProtocol(
        network,
        spec.source,
        retry_timeout=spec.param("retry_timeout", 3.0),
        max_retries=inner_retries,
    )
    protocol = ArqProtocol(
        network,
        inner,
        base_timeout=spec.param("base_timeout", 2.5),
        backoff=spec.param("backoff", 2.0),
        max_timeout=spec.param("max_timeout", 16.0),
        max_retries=max_retries,
    )
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(
        max_events=_event_budget(spec.graph) * (max_retries + inner_retries + 4)
    )
    return _coverage_summary(spec, "arq-reliable-flood", schedule, network)


@_handler("broadcast-stream")
def _exec_broadcast_stream(spec: ExperimentSpec) -> RunSummary:
    from repro.flooding.protocols.flood import StreamFloodProtocol

    count = spec.param("count", 1)
    simulator = Simulator()
    network = _network(spec, simulator, None, loss=False, faults=False)
    protocol = StreamFloodProtocol(
        network, spec.source, count, interval=spec.param("interval", 0.0)
    )
    network.attach(protocol, start_nodes=[spec.source])
    simulator.run(max_events=_event_budget(spec.graph) * max(1, count))
    return RunSummary(
        protocol=spec.protocol,
        metrics={
            "makespan": protocol.makespan(),
            "fully_covered": protocol.fully_covered(
                spec.graph.number_of_nodes()
            ),
            "messages": network.stats.messages_sent,
        },
    )


@_handler("failure-detection")
def _exec_failure_detection(spec: ExperimentSpec) -> RunSummary:
    from repro.flooding.protocols.heartbeat import HeartbeatProtocol

    crashed = tuple(spec.param("crashed", ()))
    crash_time = spec.param("crash_time", 0.0)
    schedule = FailureSchedule()
    for victim in crashed:
        schedule.crash(victim, time=crash_time)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, faults=False)
    protocol = HeartbeatProtocol(
        network,
        period=spec.param("period", 1.0),
        timeout=spec.param("timeout", 3.5),
        horizon=spec.param("horizon", 40.0),
    )
    network.attach(protocol)
    simulator.run(max_events=10_000_000)
    report = protocol.detection_report(set(crashed), crash_time)
    return RunSummary(protocol=spec.protocol, metrics={"report": report})


@_handler("view-change")
def _exec_view_change(spec: ExperimentSpec) -> RunSummary:
    from repro.flooding.protocols.viewchange import ViewChangeProtocol

    # insertion-ordered dedup: crash-event order must follow the spec,
    # not a set's hash order, so traces replay identically everywhere
    crashed = list(dict.fromkeys(spec.param("crashed", ())))
    crash_time = spec.param("crash_time", 0.0)
    if spec.source in crashed:
        raise SimulationError("coordinator fail-over is not modelled")
    schedule = FailureSchedule()
    for victim in crashed:
        schedule.crash(victim, time=crash_time)
    simulator = Simulator()
    network = _network(spec, simulator, schedule, loss=False, faults=False)
    protocol = ViewChangeProtocol(
        network,
        spec.source,
        period=spec.param("period", 1.0),
        timeout=spec.param("timeout", 3.5),
        decision_delay=spec.param("decision_delay", 2.0),
        horizon=spec.param("horizon", 60.0),
    )
    network.attach(protocol)
    simulator.run(max_events=20_000_000)
    report = protocol.convergence_report(set(crashed), crash_time)
    return RunSummary(protocol=spec.protocol, metrics={"report": report})


# ----------------------------------------------------------------------
# Batch execution: many specs through the execution engine
# ----------------------------------------------------------------------


def run_experiments(
    specs: Sequence[ExperimentSpec],
    workers: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    checkpoint: Any = None,
    resume: bool = False,
) -> Sequence[RunSummary]:
    """Execute a batch of specs through the execution engine.

    The batch equivalent of ``pool.map(run_experiment, specs)`` with the
    engine's fault-tolerance knobs attached:

    * ``workers`` fans the batch across processes; a run is a pure
      function of its spec, so every worker count gives the serial
      result;
    * ``timeout`` / ``retries`` give each run a wall-clock budget and
      retries with deterministic backoff;
    * ``checkpoint`` / ``resume`` journal each completed summary to an
      append-only JSONL file so an interrupted batch resumes without
      recomputation, byte-identical to an uninterrupted one.  Journal
      keys combine each spec's position, protocol, topology size,
      source, seed, loss settings, failure schedule, protocol params
      and the latency and fault models' :meth:`identity`, so resuming
      expects the same spec list.  A spec whose model has no stable
      identity (``identity()`` is ``None``) is never journaled: a
      resume recomputes it.

    A run that fails for good aborts the batch: when it raised, its own
    exception is re-raised with the remote traceback attached; a
    timeout or a dead worker raises
    :class:`~repro.errors.ExecutionError`.
    """
    from repro.exec.checkpoint import checkpoint_key, resume_map

    specs = list(specs)
    if labels is None:
        labels = [f"{spec.protocol}/{i}" for i, spec in enumerate(specs)]

    def key(index: int) -> Optional[str]:
        spec = specs[index]
        models = [
            model.identity()
            for model in (spec.latency, spec.fault_model)
            if model is not None
        ]
        if None in models:
            return None
        return checkpoint_key(
            "experiment",
            index,
            spec.protocol,
            spec.graph.name,
            spec.graph.number_of_nodes(),
            spec.graph.number_of_edges(),
            spec.source,
            spec.seed,
            spec.loss_rate,
            spec.loss_seed,
            spec.params,
            spec.failures,
            *models,
        )

    summaries, _, _ = resume_map(
        run_experiment,
        specs,
        labels,
        key,
        workers=workers,
        checkpoint=checkpoint,
        resume=resume,
        timeout=timeout,
        retries=retries,
    )
    return summaries


# ----------------------------------------------------------------------
# Repetition harness
# ----------------------------------------------------------------------


def repeat_runs(
    spec: ExperimentSpec,
    schedule_factory: Optional[Callable[[int], Optional[FailureSchedule]]],
    repetitions: int,
    *,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    checkpoint: Any = None,
    resume: bool = False,
) -> ResultAggregate:
    """Run a template spec over seeded failure schedules and aggregate.

    Repetition ``i`` (for ``i`` in 0, 1, 2, …) runs
    ``dataclasses.replace(spec, failures=schedule_factory(i), seed=i,
    loss_seed=i)`` — the schedule is ``None`` without a factory — and
    every repetition goes through :func:`run_experiments`.  The template
    must name a coverage protocol (one whose summary carries a
    :class:`FloodResult`): ``flood``, ``gossip``, ``treecast``,
    ``reliable-flood`` or ``arq-flood``.

    ``workers`` fans the repetitions out across worker processes;
    schedules are derived per seed in the parent and each run is a pure
    function of its spec, so any worker count gives the serial result.
    ``timeout`` / ``retries`` / ``checkpoint`` / ``resume`` are
    forwarded to :func:`run_experiments`.
    """
    specs = [
        dataclasses.replace(
            spec,
            failures=schedule_factory(i) if schedule_factory else None,
            seed=i,
            loss_seed=i,
        )
        for i in range(repetitions)
    ]
    summaries = run_experiments(
        specs,
        workers=workers,
        labels=[f"{spec.protocol}/rep{i}" for i in range(repetitions)],
        timeout=timeout,
        retries=retries,
        checkpoint=checkpoint,
        resume=resume,
    )
    aggregate = ResultAggregate()
    for summary in summaries:
        aggregate.add(summary.result)
    return aggregate
