"""Execution tracing: record and render what a protocol actually did.

Attach a :class:`TraceCollector` to a network
(``network.add_observer(trace)``) and every send/deliver/drop/crash
event lands in an ordered, queryable record.  Useful for

* debugging protocols ("who forwarded what to whom, and when?"),
* teaching (render the first rounds of a flood as a timeline),
* white-box tests (assert a protocol *never* sent after some event).

Observation is strictly passive — collectors cannot perturb the
simulation, and tracing a run leaves its results bit-identical.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Hashable, List, NamedTuple, Optional

NodeId = Hashable

_NO_PAYLOAD: Any = object()  # tells "no payload" from an explicit None


class TraceEvent(NamedTuple):
    """One observed network event (an immutable ``NamedTuple``).

    ``kind`` is ``"send"``, ``"deliver"``, ``"drop"``, ``"crash"``,
    ``"recover"``, ``"link-down"`` or ``"link-up"``; the relevant ids
    sit in ``sender``/``receiver``/``node`` (a link event records its
    first endpoint as ``node``); ``detail`` carries the drop reason or
    payload repr.
    """

    kind: str
    time: float
    sender: Optional[NodeId] = None
    receiver: Optional[NodeId] = None
    node: Optional[NodeId] = None
    detail: str = ""


class TraceCollector:
    """Collects network events in order (see module docstring).

    Parameters
    ----------
    keep_payloads:
        Record ``repr(payload)`` on send/deliver events (off by default
        to keep traces light).
    limit:
        Hard cap on stored events; beyond it new events are counted but
        not stored (``truncated`` reports how many).
    """

    def __init__(self, keep_payloads: bool = False, limit: int = 100_000) -> None:
        self.keep_payloads = keep_payloads
        self.limit = limit
        self.events: List[TraceEvent] = []
        self.truncated = 0
        self.observed: "Counter[str]" = Counter()

    def __call__(
        self,
        kind: str,
        time: float,
        sender: Optional[NodeId] = None,
        receiver: Optional[NodeId] = None,
        node: Optional[NodeId] = None,
        u: Optional[NodeId] = None,
        payload: Any = _NO_PAYLOAD,
        reason: str = "",
        **_: Any,
    ) -> None:
        self.observed[kind] += 1
        if len(self.events) >= self.limit:
            self.truncated += 1
            return
        detail = ""
        if kind == "drop":
            detail = reason
        elif self.keep_payloads and payload is not _NO_PAYLOAD:
            detail = repr(payload)
        self.events.append(
            TraceEvent(
                kind, time, sender, receiver, u if node is None else node, detail
            )
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    @property
    def truncated_events(self) -> int:
        """Events observed but not stored because ``limit`` was reached."""
        return self.truncated

    def counts(self) -> Dict[str, int]:
        """*Stored* event counts per kind.

        Past ``limit`` these undercount what actually happened; compare
        with :meth:`observed_counts` (the full tally) and check
        :attr:`truncated_events` before trusting a saturated trace.
        """
        return dict(Counter(e.kind for e in self.events))

    def observed_counts(self) -> Dict[str, int]:
        """Per-kind counts of *every* observed event, stored or not."""
        return dict(self.observed)

    def summary(self) -> str:
        """One line: observed totals, with the truncated share called out."""
        total = sum(self.observed.values())
        bits = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.observed.items())
        )
        line = f"{total} events ({bits})"
        if self.truncated:
            line += (
                f"; {self.truncated} beyond the {self.limit}-event"
                f" storage limit (counted, not stored)"
            )
        return line

    def messages_between(
        self, sender: NodeId, receiver: NodeId
    ) -> List[TraceEvent]:
        """Send events from ``sender`` to ``receiver``, in order."""
        return [
            e
            for e in self.events
            if e.kind == "send" and e.sender == sender and e.receiver == receiver
        ]

    def first(self, kind: str) -> Optional[TraceEvent]:
        """Earliest event of a kind, or ``None``."""
        for event in self.events:
            if event.kind == kind:
                return event
        return None

    def activity_histogram(self, bucket: float = 1.0) -> Dict[float, int]:
        """Sends per time bucket — the traffic profile of the run.

        Raises
        ------
        ValueError
            If ``bucket`` is not positive.
        """
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        histogram: Dict[float, int] = {}
        for event in self.events:
            if event.kind == "send":
                slot = int(event.time / bucket) * bucket
                histogram[slot] = histogram.get(slot, 0) + 1
        return dict(sorted(histogram.items()))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def export_events(self) -> List[Dict[str, Any]]:
        """The trace as JSON-safe dicts (for the JSONL telemetry log).

        One record per stored event, followed — when the collector hit
        its ``limit`` — by a trailing
        ``{"kind": "trace-truncated", "count": N, "observed": {...}}``
        record, so a saturated trace can never silently pass for a
        complete one.
        """
        records: List[Dict[str, Any]] = [
            {
                "kind": event.kind,
                "time": event.time,
                "sender": event.sender,
                "receiver": event.receiver,
                "node": event.node,
                "detail": event.detail,
            }
            for event in self.events
        ]
        if self.truncated:
            records.append(
                {
                    "kind": "trace-truncated",
                    "count": self.truncated,
                    "observed": self.observed_counts(),
                }
            )
        return records

    def write_jsonl(self, path: str) -> int:
        """Write :meth:`export_events` to ``path``; return record count."""
        import json

        records = self.export_events()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(
                    json.dumps(record, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
        return len(records)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render_timeline(self, limit: int = 40) -> str:
        """First ``limit`` events as an indented text timeline."""
        lines = []
        for event in self.events[:limit]:
            if event.kind in ("send", "deliver", "drop"):
                arrow = {"send": "->", "deliver": "=>", "drop": "x>"}[event.kind]
                suffix = f"  ({event.detail})" if event.detail else ""
                lines.append(
                    f"t={event.time:<8g} {event.kind:<7} "
                    f"{event.sender!r} {arrow} {event.receiver!r}{suffix}"
                )
            else:
                lines.append(
                    f"t={event.time:<8g} {event.kind:<7} {event.node!r}"
                )
        if len(self.events) > limit:
            lines.append(f"... {len(self.events) - limit} more events")
        if self.truncated:
            lines.append(
                f"... {self.truncated} further event(s) observed beyond the "
                f"{self.limit}-event storage limit (counted, not stored)"
            )
        return "\n".join(lines)
