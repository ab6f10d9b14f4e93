"""Tests for the discrete-event engine and event queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.existence import build_lhg
from repro.errors import SchedulingError, SimulationError
from repro.flooding.events import EventQueue
from repro.flooding.network import Network
from repro.flooding.protocols.arq import ArqProtocol
from repro.flooding.protocols.reliable import ReliableFloodProtocol
from repro.flooding.simulator import Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        while True:
            event = q.pop()
            if event is None:
                break
            event.action()
        assert fired == ["a", "b"]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append("normal"), priority=0)
        q.push(1.0, lambda: fired.append("urgent"), priority=-10)
        q.pop().action()
        assert fired == ["urgent"]

    def test_sequence_breaks_full_ties(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append(1))
        q.push(1.0, lambda: fired.append(2))
        q.pop().action()
        q.pop().action()
        assert fired == [1, 2]

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        event.cancel()
        assert q.pop() is None

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        first.cancel()
        assert q.peek_time() == 2.0

    def test_rejects_negative_and_nan(self):
        q = EventQueue()
        with pytest.raises(SchedulingError):
            q.push(-1.0, lambda: None)
        with pytest.raises(SchedulingError):
            q.push(float("nan"), lambda: None)


class TestSimulator:
    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(3.0, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        processed = sim.run()
        assert processed == 2
        assert times == [1.5, 3.0]
        assert sim.now == 3.0

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule(1.0, lambda: None)

    def test_schedule_after(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_after(2.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [3.0]

    def test_schedule_after_negative_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule_after(-0.5, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run(until=2.0)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_cascading_events(self):
        sim = Simulator()
        count = [0]

        def chain():
            count[0] += 1
            if count[0] < 5:
                sim.schedule_after(1.0, chain)

        sim.schedule(0.0, chain)
        sim.run()
        assert count[0] == 5
        assert sim.processed_events == 5

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule_after(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=50)

    def test_not_reentrant(self):
        sim = Simulator()
        caught = []

        def recurse():
            try:
                sim.run()
            except SimulationError:
                caught.append(True)

        sim.schedule(0.0, recurse)
        sim.run()
        assert caught == [True]

    def test_pending_events_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0


# few distinct times and priorities, so most pushes tie on both
_queue_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from([0.0, 1.0, 2.5]),
            st.sampled_from([-1, 0, 1]),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("peek")),
    ),
    max_size=60,
)


class TestEventQueueProperties:
    """The queue against a sorted-list model of its heap."""

    @settings(max_examples=200, deadline=None)
    @given(ops=_queue_ops)
    def test_matches_sorted_model(self, ops):
        queue = EventQueue()
        pushed = []  # (key, event) in push order
        on_heap = []  # keys still on the queue's heap, cancelled included

        def next_live():
            """Drop the cancelled entries ahead of the first live one."""
            while on_heap:
                key = min(on_heap)
                event = pushed[key[2]][1]
                if not event.cancelled:
                    return key, event
                on_heap.remove(key)
            return None

        for op in ops:
            if op[0] == "push":
                _, time, priority = op
                event = queue.push(time, lambda: None, priority=priority)
                key = (time, priority, len(pushed))
                pushed.append((key, event))
                on_heap.append(key)
            elif op[0] == "cancel":
                if pushed:
                    pushed[op[1] % len(pushed)][1].cancel()
            elif op[0] == "pop":
                expected = next_live()
                event = queue.pop()
                if expected is None:
                    assert event is None
                else:
                    assert event is expected[1]
                    on_heap.remove(expected[0])
            else:
                expected = next_live()
                assert queue.peek_time() == (
                    None if expected is None else expected[0][0]
                )
            # cancelled events count until the heap lets go of them
            assert len(queue) == len(on_heap)

        # drain: peek agrees with the pop after it, keys never go down
        last = None
        while True:
            time = queue.peek_time()
            event = queue.pop()
            if event is None:
                assert time is None
                break
            assert time == event.time and not event.cancelled
            key = (event.time, event.priority, event.sequence)
            assert last is None or last < key
            last = key
        assert len(queue) == 0


class TestWorkCounter:
    def test_run_adds_fired_events_once_per_call(self):
        graph, _ = build_lhg(24, 3)
        source = graph.nodes()[0]
        simulator = Simulator()
        network = Network(graph, simulator, loss_rate=0.2, loss_seed=7)
        network.attach(
            ArqProtocol(network, ReliableFloodProtocol(network, source)),
            start_nodes=[source],
        )
        collector = obs.install(obs.Collector())
        try:
            fired = simulator.run()
            assert simulator.run() == 0
        finally:
            obs.uninstall()
        # recorded on the engine before the tuple-keyed heap
        assert fired == simulator.processed_events == 630
        assert network.stats.messages_sent == 419
        counters = collector.metrics.snapshot()["counters"]
        assert counters["simulator.events"] == 630
