"""Contention MACs: when does a requested transmission actually air?

The bare medium airs every transmission the instant the protocol hands it
over — the paper's perfect-MAC assumption.  The models here instead answer
:meth:`MacModel.air_delay` with a (possibly zero) wait, and the medium
schedules the on-air instant through the event engine:

* :class:`SlottedCsmaMac` — slotted CSMA with deterministic seeded binary
  exponential backoff.  A sender draws a backoff slot, carrier-senses the
  already-committed air reservations of its unit-disk neighbourhood, and
  doubles its window on a busy draw, up to an attempt budget (then the
  packet is dropped and counted).
* :class:`TdmaMac` — a fixed frame of ``frame`` slots; node ``v`` may only
  air in slot ``v mod frame``, so contention is resolved by schedule
  rather than by chance (nodes sharing a slot still interfere — the frame
  trades latency for a ``frame``-fold thinning of concurrency).

Determinism contract: backoff draws come from the MAC's own seeded
generator and are consumed in transmit-request order, which the event
engine fixes; TDMA consumes no randomness at all.  Identical seeds
therefore give byte-identical schedules on every execution backend.

All slot arithmetic is in units of the medium's ``latency`` (one slot =
one transmission time), matching the slotted model of the broadcast
protocols' ``jitter_slots``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

from repro import perf
from repro.errors import SimulationError
from repro.rng import RngLike, ensure_rng
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.medium import WirelessMedium

#: Tolerance for "is this time on a slot boundary" float comparisons.
_EPS = 1e-9


class MacModel:
    """Base MAC: air instantly (the paper's perfect-MAC assumption).

    Attributes:
        deferrals: Transmissions that had to wait for a later slot.
        drops: Transmissions abandoned (attempt budget exhausted).
    """

    def __init__(self) -> None:
        self.medium: Optional["WirelessMedium"] = None
        self.deferrals = 0
        self.drops = 0

    def bind(self, medium: "WirelessMedium") -> None:
        """Attach to ``medium``; slot length resolves to its latency."""
        self.medium = medium

    @property
    def slot(self) -> float:
        """One slot = one transmission time of the bound medium."""
        if self.medium is None:
            raise SimulationError("MAC is not bound to a medium")
        return self.medium.latency

    def _next_slot(self, now: float) -> int:
        """Index of the first slot boundary at or after ``now``."""
        return int(math.ceil(now / self.slot - _EPS))

    def air_delay(self, sender: NodeId) -> Optional[float]:
        """Wait before ``sender`` may air (``None`` = drop the packet)."""
        return 0.0


class SlottedCsmaMac(MacModel):
    """Slotted CSMA/CA with deterministic seeded binary exponential backoff.

    Args:
        rng: Seed or generator for the backoff draws (seed it — an unseeded
            MAC breaks the determinism contract of the experiments).
        cw_min: Initial contention window, in slots.
        cw_max: Window ceiling for the exponential backoff.
        max_attempts: Busy draws tolerated before the packet is dropped.

    Carrier sensing is against *committed* air reservations: every slot
    this MAC has already granted to the sender itself or to one of its
    unit-disk neighbours counts as busy.  Sensing therefore sees the
    future schedule rather than the physical present — the slotted
    idealisation that keeps the model exact and deterministic instead of
    modelling propagation-delay races.
    """

    def __init__(self, rng: RngLike = None, *, cw_min: int = 4,
                 cw_max: int = 64, max_attempts: int = 8) -> None:
        super().__init__()
        if cw_min < 1 or cw_max < cw_min:
            raise SimulationError(
                f"need 1 <= cw_min <= cw_max, got [{cw_min}, {cw_max}]"
            )
        if max_attempts < 1:
            raise SimulationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.cw_min = int(cw_min)
        self.cw_max = int(cw_max)
        self.max_attempts = int(max_attempts)
        self._rng = ensure_rng(rng)
        #: Committed reservations: slot index -> reserving senders in
        #: grant order.  Slots before the current one are pruned lazily.
        self._reserved: Dict[int, List[NodeId]] = {}

    def _busy(self, sender: NodeId, slot_index: int) -> bool:
        """Whether ``sender`` senses ``slot_index`` as taken."""
        reservers = self._reserved.get(slot_index)
        if not reservers:
            return False
        assert self.medium is not None
        neighbours = self.medium.graph.neighbours_view(sender)
        for reserver in reservers:
            if reserver == sender or reserver in neighbours:
                return True
        return False

    @perf.timed("channel")
    def air_delay(self, sender: NodeId) -> Optional[float]:
        """Backoff draw(s) until a sensed-idle slot, or ``None`` on drop."""
        assert self.medium is not None
        now = self.medium.sim.now
        base = self._next_slot(now)
        reserved = self._reserved
        for slot_index in [s for s in reserved if s < base - 1]:
            del reserved[slot_index]
        cw = self.cw_min
        offset = 0
        for attempt in range(self.max_attempts):
            offset += int(self._rng.integers(0, cw))
            candidate = base + offset
            if not self._busy(sender, candidate):
                if candidate != base or attempt:
                    self.deferrals += 1
                reserved.setdefault(candidate, []).append(sender)
                return candidate * self.slot - now
            cw = min(cw * 2, self.cw_max)
            offset += 1  # the busy slot itself is skipped
        self.drops += 1
        return None


class TdmaMac(MacModel):
    """Fixed-frame TDMA: node ``v`` airs only in slot ``v mod frame``.

    Args:
        frame: Slots per frame.  Larger frames thin concurrent airings
            further (less interference) at a ``frame/2``-slot average
            access latency; ``frame=1`` degenerates to the instant MAC.

    Slot assignment by node id needs no signalling and no randomness, so
    the schedule is a pure function of the topology's ids — the classic
    deterministic end of the contention spectrum, opposite CSMA's seeded
    coin flips.
    """

    def __init__(self, frame: int = 8) -> None:
        super().__init__()
        if frame < 1:
            raise SimulationError(f"frame must be >= 1, got {frame}")
        self.frame = int(frame)

    @perf.timed("channel")
    def air_delay(self, sender: NodeId) -> Optional[float]:
        """Wait until the sender's next owned slot boundary."""
        assert self.medium is not None
        now = self.medium.sim.now
        base = self._next_slot(now)
        own = int(sender) % self.frame
        candidate = base + ((own - base) % self.frame)
        delay = candidate * self.slot - now
        if delay > _EPS:
            self.deferrals += 1
        return delay
