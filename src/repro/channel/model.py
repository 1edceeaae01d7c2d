"""The channel-model seam: base protocol, identity model, statistics.

A :class:`ChannelModel` answers three questions for the medium, mirroring
the lifecycle of a broadcast transmission:

* :meth:`~ChannelModel.air_delay` — *when* does a requested transmission
  actually go on the air?  ``0.0`` means "now" (the medium then airs it
  inline, preserving the bare medium's event structure); a positive delay
  is scheduled through the event engine; ``None`` means the MAC gave up
  (the packet is dropped and counted, nothing is traced).
* :meth:`~ChannelModel.on_air` — the transmission is on the air *now*;
  interference-aware models register the busy interval here.
* :meth:`~ChannelModel.accepts` — at delivery time, does this copy survive
  the channel?  Called once per copy, after the fault hook's receiver gate
  (crash gates before SINR; copies multiply before capture).

The base class is the identity on all three — :class:`IdealChannel` is a
named alias of it, attached when an experiment wants the seam exercised
while reproducing the bare medium bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (medium ↔ channel)
    from repro.channel.mac import MacModel
    from repro.sim.medium import WirelessMedium


@dataclass(frozen=True)
class ChannelStats:
    """Counters accumulated by a channel model over one simulation.

    Attributes:
        aired: Transmissions that actually went on the air.
        collisions: Delivered copies destroyed by interference (SINR below
            threshold, or the receiver was itself transmitting).
        captures: Copies delivered *despite* at least one overlapping
            interferer (the capture effect).
        half_duplex_drops: Copies lost because the receiver's own radio was
            busy transmitting when they arrived (subset of ``collisions``).
        mac_deferrals: Backoff/slot waits imposed by the MAC (one per
            deferred transmission, not per slot).
        mac_drops: Transmissions abandoned after the MAC's attempt budget.
    """

    aired: int = 0
    collisions: int = 0
    captures: int = 0
    half_duplex_drops: int = 0
    mac_deferrals: int = 0
    mac_drops: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-friendly representation (stable key order)."""
        return {
            "aired": self.aired,
            "collisions": self.collisions,
            "captures": self.captures,
            "half_duplex_drops": self.half_duplex_drops,
            "mac_deferrals": self.mac_deferrals,
            "mac_drops": self.mac_drops,
        }


class ChannelModel:
    """Duck-typed channel consulted by the medium; the base is the identity.

    Subclasses may carry a :class:`~repro.channel.mac.MacModel` (contention
    scheduling) and override :meth:`accepts` (reception physics).  The
    identity implementation airs instantly and accepts everything without
    consuming randomness, so attaching it changes nothing observable.
    """

    def __init__(self, mac: Optional["MacModel"] = None) -> None:
        self.mac = mac
        self.medium: Optional["WirelessMedium"] = None
        self.aired = 0
        self.collisions = 0
        self.captures = 0
        self.half_duplex_drops = 0

    def bind(self, medium: "WirelessMedium") -> None:
        """Attach to ``medium`` (called by the medium, not user code)."""
        self.medium = medium
        if self.mac is not None:
            self.mac.bind(medium)

    def air_delay(self, sender: NodeId) -> Optional[float]:
        """Delay until ``sender``'s transmission airs (``None`` = MAC drop)."""
        if self.mac is None:
            return 0.0
        return self.mac.air_delay(sender)

    def on_air(self, sender: NodeId, air_time: float) -> None:
        """Notification that ``sender`` is on the air at ``air_time``."""
        self.aired += 1

    def accepts(self, sender: NodeId, receiver: NodeId,
                air_time: float) -> bool:
        """Whether this copy survives the channel (identity: always)."""
        return True

    def stats(self) -> ChannelStats:
        """Snapshot of the accumulated counters (MAC counters included)."""
        return ChannelStats(
            aired=self.aired,
            collisions=self.collisions,
            captures=self.captures,
            half_duplex_drops=self.half_duplex_drops,
            mac_deferrals=self.mac.deferrals if self.mac is not None else 0,
            mac_drops=self.mac.drops if self.mac is not None else 0,
        )


class IdealChannel(ChannelModel):
    """The identity channel: today's lossless, collision-free medium.

    Exists so experiments can exercise the channel seam (and compose a MAC
    with perfect reception) while the PHY stays the paper's assumption.
    With no MAC attached, a medium carrying an :class:`IdealChannel` is
    bit-identical to one carrying no channel at all — same events, same
    trace, same RNG consumption — which ``tests/test_channel_model.py``
    and the composition tests pin down.
    """
