"""Transmission traces and message statistics.

Every transmission through the medium is recorded here.  The per-type counts
and volumes are what the message-complexity benches fit against ``n``, and
``render()`` produces the human-readable protocol trace used by the
``distributed_trace`` example (mirroring the paper's Section 3 walkthrough).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.sim.messages import Message
from repro.types import NodeId


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One transmission: when, who, what."""

    time: float
    sender: NodeId
    message: Message


@dataclass
class TraceRecorder:
    """Accumulates transmissions and derives statistics."""

    entries: List[TraceEntry] = field(default_factory=list)

    def record(self, time: float, sender: NodeId, message: Message) -> None:
        """Append one transmission."""
        self.entries.append(TraceEntry(time=time, sender=sender, message=message))

    @property
    def total_messages(self) -> int:
        """Number of transmissions (the O(n) claim's unit)."""
        return len(self.entries)

    @property
    def total_volume(self) -> int:
        """Sum of message sizes in id units."""
        return sum(e.message.size() for e in self.entries)

    def render(self, limit: int | None = None) -> str:
        """Human-readable trace listing, optionally truncated to ``limit``."""
        lines = []
        shown = self.entries if limit is None else self.entries[:limit]
        for e in shown:
            lines.append(f"t={e.time:6.1f}  node {e.sender:>4}  {e.message}")
        if limit is not None and len(self.entries) > limit:
            lines.append(f"... {len(self.entries) - limit} more transmissions")
        return "\n".join(lines)
