"""Event queue primitives.

Events are ordered by ``(time, priority, seq)``.  ``priority`` is an
arbitrary comparable tuple — the medium uses ``(sender, receiver)`` so that
simultaneous deliveries replay in the same order as the centralised
algorithms' tie-breaking — and ``seq`` is a monotonically increasing tiebreak
that keeps ordering total and insertion-stable.

The heap holds plain ``(time, priority, seq, action)`` tuples, so tuple
comparison is the total order (``seq`` is unique: actions are never
compared) and the run loop unpacks them without attribute lookups.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError

#: Priority tuples must be comparable against each other; plain int tuples.
Priority = Tuple[int, ...]

_INF = float("inf")


class Event(NamedTuple):
    """A scheduled callback, laid out exactly as a heap entry.

    Attributes:
        time: Simulation time at which the action fires.
        priority: Secondary ordering key for same-time events.
        seq: Insertion sequence number (total-order tiebreak).
        action: Zero-argument callable executed at ``time``.
    """

    time: float
    priority: Priority
    seq: int
    action: Callable[[], None]


class EventQueue:
    """A binary-heap priority queue of ``(time, priority, seq, action)``."""

    __slots__ = ("heap", "counter")

    def __init__(self) -> None:
        self.heap: List[Tuple[float, Priority, int, Callable[[], None]]] = []
        self.counter = itertools.count()

    def push(self, time: float, action: Callable[[], None],
             priority: Priority = ()) -> None:
        """Enqueue ``action`` at ``time`` (finite and non-negative)."""
        if not 0.0 <= time < _INF:  # also rejects NaN
            raise SimulationError(f"cannot schedule at time {time}")
        heapq.heappush(self.heap, (time, priority, next(self.counter), action))

    def pop(self) -> Event:
        """Dequeue the earliest event."""
        if not self.heap:
            raise SimulationError("pop from an empty event queue")
        return Event._make(heapq.heappop(self.heap))

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or ``None`` when empty."""
        return self.heap[0][0] if self.heap else None

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)
