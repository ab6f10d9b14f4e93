"""Synchronous-round flooding over any ``NeighborOracle``.

The discrete-event simulator (:mod:`repro.flooding.simulator`) prices
every message as a scheduled closure — perfect for latency models,
faults and chaos, but at n = 10⁶ a single flood would hold millions of
in-flight events at once.  Under **unit latency** the event semantics
collapse to synchronous rounds: every node first covered in round r
forwards in round r + 1, so a frontier-by-frontier sweep reproduces
the exact coverage, message count and completion time of
:class:`~repro.flooding.protocols.flood.FloodProtocol` on the default
network — which the test suite pins — while holding only the current
frontier.

Message accounting matches the protocol exactly:

* the source sends to **all** of its neighbours (``deg(source)``);
* every other covered node forwards on first receipt to every
  neighbour except the sender (``deg(v) − 1``);
* duplicate receipts trigger nothing.

With no failures, completion time (in hops) equals the number of
rounds — the source's eccentricity in its component.

**Failure schedules.**  :func:`round_flood` also takes a
:class:`~repro.flooding.failures.FailureSchedule`, replayed with the
event simulator's exact tie-breaking (at one instant: failures, then
recoveries, then deliveries — see ``FAILURE_PRIORITY``):

* a send at round r is silently dropped (never counted) when the link
  is already down at r — the sender cannot use a link it has lost;
* a counted message dies in flight when its receiver is down or its
  link is down at delivery time r + 1;
* crashed-then-recovered nodes miss everything sent while they were
  down but can be covered by a later frontier.

The result's ``covered``/``completion_time`` count only nodes alive in
the schedule's *final* state and ``alive``/``reachable`` come from the
survivor topology (a lazy :class:`~repro.graphs.faultview.FaultView`)
— byte-identical to the event simulator's
:class:`~repro.flooding.metrics.FloodResult` under the same schedule,
which ``tests/test_faultview.py`` pins over the small census.

**Loss.**  ``loss_rate`` applies seed-stable *per-round batched*
Bernoulli sampling: round r draws from
``random.Random(derive_seed(loss_seed, "round-flood-loss", r))`` in
deterministic frontier order.  Lost messages are counted as sent and
die in flight, matching the event simulator's cost model — but the
draw *order* is round-batched rather than event-interleaved, so loss
runs are reproducible against this engine, not against the event
simulator.

**One kernel.**  A missing schedule is an empty one, and every flood
runs the same kernel, one pass per round: each send is checked
against the link state at round r, each delivery against the down-set
and link state at r + 1.  Down links are kept as an endpoint map (node
→ the partners it has lost), updated as link events fire, so the link
state is looked up once per sender row and a send is checked only
against the losses of its own sender — no per-send edge key.  Without
link events or loss every neighbour but the sender gets a counted
send, so messages come from the lengths of the rows read rather than
one count per send.  Without events or loss ``alive`` is n and
``reachable`` is ``covered``, so the survivor
:class:`~repro.graphs.faultview.FaultView` and its BFS are skipped;
with them, ``reachable`` comes from that BFS, never from the flood
itself.  The visited state comes from
:func:`~repro.graphs.faultview.visited_state`: a flat ``bytearray``
(~1 byte per node) on dense-int oracles, a set of labels otherwise.
Each flood opens one ``rounds.flood`` span and adds the rows it read to
the ``rounds.rows`` counter of the active :mod:`repro.obs` collector,
once per call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set

import repro.obs as obs
from repro.errors import NodeNotFoundError, SimulationError
from repro.flooding.failures import (
    FailureSchedule,
    _final_down_links,
    _final_down_nodes,
)
from repro.graphs.faultview import FaultView, component_size, visited_state
from repro.graphs.oracle import NeighborOracle, oracle_has_node

NodeId = Hashable


@dataclass(frozen=True)
class RoundFloodResult:
    """Outcome of one synchronous-round flood.

    ``messages``, ``covered`` and ``completion_time`` equal the
    event-driven flood's message count, alive coverage and completion
    time under unit latency with the same failure schedule.  Without
    failures ``covered == reachable == alive == n`` (flooding fills
    its component); ``alive`` and ``reachable`` default accordingly so
    pre-failure constructors are unchanged.
    """

    source: NodeId
    n: int
    covered: int
    messages: int
    rounds: int
    round_sizes: List[int] = field(default_factory=list)
    alive: Optional[int] = None
    reachable: Optional[int] = None

    def __post_init__(self) -> None:
        if self.alive is None:
            object.__setattr__(self, "alive", self.n)
        if self.reachable is None:
            object.__setattr__(self, "reachable", self.covered)

    @property
    def fully_covered(self) -> bool:
        """True when every reachable survivor got the payload."""
        return self.covered >= (self.reachable or 0)

    @property
    def delivery_ratio(self) -> float:
        """covered / reachable (1.0 when nothing was reachable)."""
        if not self.reachable:
            return 1.0
        return self.covered / self.reachable

    @property
    def completion_time(self) -> Optional[float]:
        """Hops to the last surviving delivery (``None`` if none)."""
        if self.covered == 0:
            return None
        return float(self.rounds)


@obs.traced("rounds.flood")
def round_flood(
    oracle: NeighborOracle,
    source: NodeId,
    schedule: Optional[FailureSchedule] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
) -> RoundFloodResult:
    """Flood ``oracle`` from ``source`` in synchronous rounds.

    Parameters
    ----------
    schedule:
        Optional :class:`~repro.flooding.failures.FailureSchedule`
        replayed at round granularity (event times are rounds); a
        missing schedule is an empty one.
    loss_rate / loss_seed:
        Per-message Bernoulli loss, sampled seed-stably per round.

    Raises
    ------
    NodeNotFoundError
        If ``source`` is not a node of the oracle.
    SimulationError
        If the source is crashed at start, or ``loss_rate`` is not a
        probability.
    """
    if not oracle_has_node(oracle, source):
        raise NodeNotFoundError(source)
    if not 0.0 <= loss_rate <= 1.0:
        raise SimulationError(f"loss_rate must be in [0, 1], got {loss_rate}")
    if schedule is None:
        schedule = FailureSchedule()
    if any(c.node == source and c.time <= 0 for c in schedule.crashes):
        raise SimulationError("the flood source is crashed at start")

    events = _timeline(oracle, schedule)
    alive: Optional[int] = None
    reachable: Optional[int] = None
    final_down: FrozenSet[NodeId] = frozenset()
    if events or loss_rate > 0.0:
        # the survivor topology (final schedule state) prices alive/reachable
        view = FaultView(
            oracle, _final_down_nodes(schedule), _final_down_links(schedule)
        )
        final_down = view.down_nodes
        alive = view.num_nodes()
        reachable = component_size(view, source) if view.has_node(source) else 0

    # seen[v] is set once v is covered, and while an uncovered v is down
    # (``blocked``), so one probe rejects both at delivery time
    seen = visited_state(oracle)
    seen[source] = 1
    blocked: set = set()
    # the links down now, as an endpoint map: node → partners it lost
    cut: Dict[NodeId, Set[NodeId]] = {}
    index = 0

    def advance(now: float) -> None:
        nonlocal index
        while index < len(events) and events[index][0] <= now:
            _, _, kind, a, b = events[index]
            index += 1
            if kind == "node":
                if not seen[a]:
                    seen[a] = 1
                    blocked.add(a)
            elif kind == "node-up":
                if a in blocked:
                    blocked.discard(a)
                    seen[a] = 0
            elif kind == "link":
                cut.setdefault(a, set()).add(b)
                cut.setdefault(b, set()).add(a)
            else:
                cut.get(a, set()).discard(b)
                cut.get(b, set()).discard(a)

    # without link events or loss every neighbour but the sender gets a
    # counted send, so messages follow from the row lengths read
    per_message = bool(
        schedule.link_failures or schedule.link_recoveries or loss_rate > 0.0
    )
    neighbors = oracle.neighbors
    messages = 0
    rows = entries = 0
    round_sizes = [0 if source in final_down else 1]
    frontier = [source]
    senders: List[Optional[NodeId]] = [None]
    now = 0
    advance(0)
    while frontier:
        rows += len(frontier)
        if per_message:
            rng = (
                random.Random(_loss_round_seed(loss_seed, now))
                if loss_rate > 0.0
                else None
            )
            cut_at_send = {u: frozenset(ws) for u, ws in cut.items()}
        # sends at round r see the links of r; deliveries at r + 1 see
        # the nodes and links of r + 1
        advance(now + 1)
        next_frontier: List[NodeId] = []
        append = next_frontier.append
        if per_message:
            next_senders: List[Optional[NodeId]] = []
            for node, sender in zip(frontier, senders):
                # links are checked only at the endpoints of failed links
                lost_at_send = cut_at_send.get(node, ())
                lost_now = cut.get(node, ())
                for target in neighbors(node):
                    if target == sender or target in lost_at_send:
                        continue  # return copy, or link down at send: never sent
                    messages += 1
                    if rng is not None and rng.random() < loss_rate:
                        continue  # counted as sent, lost in flight
                    if seen[target] or target in lost_now:
                        continue  # covered, down, or its link died in flight
                    seen[target] = 1
                    append(target)
                    next_senders.append(node)
            senders = next_senders
        else:
            for node in frontier:
                row = neighbors(node)
                entries += len(row)
                for target in row:
                    if not seen[target]:
                        seen[target] = 1
                        append(target)
        if not next_frontier:
            break
        now += 1
        doomed = len(final_down.intersection(next_frontier)) if final_down else 0
        round_sizes.append(len(next_frontier) - doomed)
        frontier = next_frontier
    if not per_message:
        # the source sends deg(source), every other row deg(v) − 1
        messages = entries - (rows - 1)
    obs.counter("rounds.rows", rows)
    covered = sum(round_sizes)
    # doomed nodes keep relaying until the end; completion counts only
    # deliveries that survive, so trim the trailing doomed-only rounds
    while len(round_sizes) > 1 and round_sizes[-1] == 0:
        round_sizes.pop()
    return RoundFloodResult(
        source=source,
        n=oracle.num_nodes(),
        covered=covered,
        messages=messages,
        rounds=len(round_sizes) - 1,
        round_sizes=round_sizes,
        alive=alive,
        reachable=reachable,
    )


def _timeline(oracle: NeighborOracle, schedule: FailureSchedule) -> List[tuple]:
    """Schedule events as (time, phase, kind, a, b), simulator-ordered.

    Phase 0 (failures) sorts before phase 1 (recoveries) at equal
    times — the ``FAILURE_PRIORITY < RECOVERY_PRIORITY`` tie-break, so
    a same-instant crash+recover pair leaves the node up.  Node events
    for ids the oracle does not have are dropped: they can never
    receive, so crashing them is a no-op, as in the event simulator.
    """
    events = [
        (crash.time, 0, "node", crash.node, None)
        for crash in schedule.crashes
        if oracle_has_node(oracle, crash.node)
    ]
    for failure in schedule.link_failures:
        events.append((failure.time, 0, "link", failure.u, failure.v))
    for recovery in schedule.recoveries:
        if oracle_has_node(oracle, recovery.node):
            events.append((recovery.time, 1, "node-up", recovery.node, None))
    for restore in schedule.link_recoveries:
        events.append((restore.time, 1, "link-up", restore.u, restore.v))
    events.sort(key=lambda event: (event[0], event[1]))
    return events


def _loss_round_seed(loss_seed: int, round_index: int) -> int:
    from repro.exec.seeding import derive_seed

    return derive_seed(loss_seed, "round-flood-loss", round_index)
