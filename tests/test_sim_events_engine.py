"""Tests for the event queue and simulation engine."""

import heapq
import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue


def push(q, time, action, priority=()):
    """Enqueue the way :meth:`Simulator.schedule` does."""
    heapq.heappush(q.heap, (time, priority, next(q.counter), action))


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        order = []
        push(q, 2.0, lambda: order.append("b"))
        push(q, 1.0, lambda: order.append("a"))
        q.pop().action()
        q.pop().action()
        assert order == ["a", "b"]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        order = []
        push(q, 1.0, lambda: order.append("second"), priority=(5,))
        push(q, 1.0, lambda: order.append("first"), priority=(2,))
        q.pop().action()
        q.pop().action()
        assert order == ["first", "second"]

    def test_seq_breaks_full_ties(self):
        q = EventQueue()
        order = []
        push(q, 1.0, lambda: order.append(1), priority=(0,))
        push(q, 1.0, lambda: order.append(2), priority=(0,))
        q.pop().action()
        q.pop().action()
        assert order == [1, 2]  # insertion-stable

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        assert sim.pending == 0

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, time):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(time, lambda: None)
        assert sim.pending == 0


class TestSimulator:
    def test_schedule_and_run(self):
        sim = Simulator()
        hits = []
        sim.schedule(5.0, lambda: hits.append(sim.now))
        sim.schedule(2.0, lambda: hits.append(sim.now))
        assert sim.run() == 2
        assert hits == [2.0, 5.0]
        assert sim.now == 5.0

    def test_run_until(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.schedule(10.0, lambda: hits.append(10))
        sim.run(until=5.0)
        assert hits == [1]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_cascading_events(self):
        sim = Simulator()
        hits = []

        def fire(depth):
            hits.append(depth)
            if depth < 3:
                sim.schedule(1.0, lambda: fire(depth + 1))

        sim.schedule(0.0, lambda: fire(0))
        sim.run_to_quiescence()
        assert hits == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.5, lambda: None)

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, delay):
        # A NaN delay used to be accepted and, since every comparison with
        # NaN is false, ran before earlier events.
        sim = Simulator()
        hits = []
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: hits.append("bad"))
        sim.schedule(1.0, lambda: hits.append(1.0))
        sim.schedule(0.5, lambda: hits.append(0.5))
        sim.run()
        assert hits == [0.5, 1.0]

    def test_delay_overflowing_to_infinity_rejected(self):
        sim = Simulator()
        sim.schedule(1e308, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(1e308, lambda: None)

    def test_runaway_guard(self):
        sim = Simulator(max_events=50)

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError, match="runaway"):
            sim.run_to_quiescence()

    def test_runaway_guard_checks_before_executing(self):
        # The guard must fire *before* event max_events + 1 runs: exactly
        # max_events events execute, and the offending event stays queued.
        sim = Simulator(max_events=10)
        hits = []

        def loop():
            hits.append(sim.now)
            sim.schedule(1.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run_to_quiescence()
        assert len(hits) == 10
        assert sim.events_processed == 10
        assert sim.pending == 1

    def test_guard_counts_per_run_not_cumulatively(self):
        # Two consecutive runs, each under the budget, must not trip the
        # guard even though their combined event count exceeds it.
        sim = Simulator(max_events=5)
        for t in range(4):
            sim.schedule(float(t), lambda: None)
        assert sim.run() == 4
        for t in range(4):
            sim.schedule(float(t), lambda: None)
        assert sim.run() == 4
        assert sim.events_processed == 8

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule(float(t), lambda: None)
        sim.run()
        assert sim.events_processed == 5
