"""The discrete-event simulation engine.

A :class:`Simulator` advances a virtual clock through an
:class:`~repro.flooding.events.EventQueue`.  Everything the flooding
experiments need — message deliveries, crashes, protocol timers — is an
event; the engine itself knows nothing about networks or protocols, so
it is reusable for any substrate.

Determinism contract: identical schedules produce identical executions.
Events fire in the queue's ``(time, priority, sequence)`` heap order;
all randomness lives in the callers (latency models, failure schedules)
behind explicit seeds, and the engine adds none.  Each ``run`` call adds
the events it fired to the ``simulator.events`` :mod:`repro.obs` counter.
"""

from __future__ import annotations

from typing import Callable, Optional

import repro.obs as obs
from repro.errors import SchedulingError, SimulationError
from repro.flooding.events import Event, EventQueue


class Simulator:
    """A single-clock discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    2
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """How many events have fired so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """How many events are still queued."""
        return len(self._queue)

    def schedule(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule an absolute-time event.

        Raises
        ------
        SchedulingError
            If ``time`` lies in the simulator's past.
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule at {time} — the clock is already at {self._now}"
            )
        return self._queue.push(time, action, priority)

    def schedule_after(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule a relative-delay event (``delay ≥ 0``).

        A non-negative delay cannot land in the past, so the event goes
        straight onto the queue (which still rejects a NaN time).

        Raises
        ------
        SchedulingError
            If ``delay`` is negative or NaN.
        """
        if delay < 0:
            raise SchedulingError(f"delay must be non-negative, got {delay}")
        return self._queue.push(self._now + delay, action, priority)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Drain the event queue; return the number of events processed.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time
            (the clock is left at ``until``).
        max_events:
            Safety valve against runaway protocols.

        Raises
        ------
        SimulationError
            If called re-entrantly (an event action calling ``run``) or
            if ``max_events`` is exhausted with events still pending.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        processed_before = self._processed
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                if max_events is not None and (
                    self._processed - processed_before
                ) >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} with "
                        f"{len(self._queue)} events pending — runaway protocol?"
                    )
                event = self._queue.pop()
                assert event is not None
                self._now = event.time
                event.action()
                self._processed += 1
        finally:
            self._running = False
            obs.counter("simulator.events", self._processed - processed_before)
        return self._processed - processed_before
