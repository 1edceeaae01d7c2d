"""The simulation engine: a run loop over the event queue."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from repro.errors import SimulationError
from repro.sim.events import EventQueue, Priority

_INF = float("inf")


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        max_events: Safety valve — a single :meth:`run` call is allowed at
            most this many events; the guard raises *before* executing the
            first event past the budget, catching accidental infinite
            message loops in protocol code (the paper's protocols are all
            O(n) messages).
    """

    def __init__(self, max_events: int = 5_000_000) -> None:
        self._queue = EventQueue()
        self._now: float = 0.0
        self._processed = 0
        self.max_events = max_events

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events executed since construction."""
        return self._processed

    @property
    def pending(self) -> int:
        """Events still queued."""
        return len(self._queue)

    def schedule(self, delay: float, action, priority: Priority = ()) -> None:
        """Schedule ``action`` ``delay`` (finite, >= 0) time units from now."""
        time = self._now + delay
        if not (delay >= 0.0 and time < _INF):  # NaN fails both tests
            raise SimulationError(f"invalid delay {delay}")
        queue = self._queue
        heappush(queue.heap, (time, priority, next(queue.counter), action))

    def run(self, until: Optional[float] = None) -> int:
        """Process events (optionally only up to time ``until``).

        The ``max_events`` guard is applied **per call** and **before**
        executing the offending event: a call never processes more than
        ``max_events`` events, and the event that would exceed the budget
        stays queued (previously the guard fired only after executing event
        ``max_events + 1``, and counted events from all previous calls).

        Returns:
            Number of events processed by this call.

        Raises:
            SimulationError: when this call would process more than
                ``max_events`` events.
        """
        heap = self._queue.heap
        limit = _INF if until is None else until
        budget = self.max_events
        count = 0
        try:
            while heap:
                if heap[0][0] > limit:
                    break
                if count >= budget:
                    raise SimulationError(
                        f"exceeded {budget} events in one run — "
                        f"runaway protocol?"
                    )
                time, _, _, action = heappop(heap)
                self._now = time
                action()
                count += 1
        finally:
            self._processed += count
        if until is not None and self._now < until:
            self._now = until
        return count

    def run_to_quiescence(self) -> int:
        """Run until no events remain (phase completion)."""
        return self.run(until=None)
