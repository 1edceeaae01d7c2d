"""Log-distance pathloss + SINR-threshold reception with interference.

The physical model behind the broadcast-storm argument: a copy arriving at
``r`` from ``s`` is received iff

    SINR = P·d(s,r)^-α / (N + Σ_i P·d(i,r)^-α)  >=  β

where the sum ranges over every *other* transmission whose on-air interval
overlaps this one (the medium registers intervals at air time; with
``latency > 0`` every overlapping transmission is registered before the
first delivery it can affect fires, so the computation is exact, not
probabilistic).  Redundant flooding thus destroys its own delivery — the
denser the relay set, the larger the interference sum — while a sparse
backbone's few relays mostly clear the threshold.  That is the paper's
motivation made mechanistic.

Calibration ties the PHY to the unit-disk graph: the noise floor is set so
a link at exactly the transmission range has ``noise_margin`` × the
threshold SINR when nothing interferes.  With no overlapping transmissions
every graph edge is therefore receivable, and the model degrades the ideal
medium *only* through interference (plus the medium's independent loss
knob, which stays upstream of the SINR decision).

Half-duplex applies: a node that is itself on the air cannot hear an
overlapping arrival.  The decision consumes no randomness — reception is
a pure function of geometry and the air schedule — so a seeded run is
bit-reproducible on every execution backend.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro import perf
from repro.channel.model import ChannelModel
from repro.errors import SimulationError
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.channel.mac import MacModel
    from repro.graph.network import Network

#: Guard against co-located nodes (d=0 would mean infinite received power).
_MIN_DISTANCE = 1e-3

#: Tolerance knocked off the overlap window so transmissions in adjacent
#: slots (|Δt| == latency exactly) never read as overlapping under float
#: arithmetic.
_EPS = 1e-9


class SinrChannel(ChannelModel):
    """SINR-threshold reception over log-distance pathloss.

    Args:
        network: The sampled :class:`~repro.graph.network.Network` — supplies
            positions, the calibrated transmission range and torus geometry.
        alpha: Pathloss exponent (2 = free space, 3-4 = urban; default 3).
        threshold: Required SINR ``β`` (linear, not dB; default 4 ≈ 6 dB).
        noise_margin: SNR headroom of a max-range link over ``β`` when the
            air is otherwise clear (>= 1; 1 calibrates range-edge links to
            exactly the threshold, larger values make isolated links robust
            and reserve destruction for genuine interference).
        tx_power: Common transmit power (the scale cancels in the SINR, it
            only fixes the noise floor's unit).
        mac: Optional contention MAC deciding *when* transmissions air.
    """

    def __init__(
        self,
        network: "Network",
        *,
        alpha: float = 3.0,
        threshold: float = 4.0,
        noise_margin: float = 2.0,
        tx_power: float = 1.0,
        mac: Optional["MacModel"] = None,
    ) -> None:
        super().__init__(mac=mac)
        if alpha <= 0:
            raise SimulationError(f"alpha must be positive, got {alpha}")
        if threshold <= 0:
            raise SimulationError(
                f"SINR threshold must be positive, got {threshold}"
            )
        if noise_margin < 1.0:
            raise SimulationError(
                f"noise_margin must be >= 1, got {noise_margin}"
            )
        if tx_power <= 0:
            raise SimulationError(f"tx_power must be positive, got {tx_power}")
        self.alpha = float(alpha)
        self.threshold = float(threshold)
        self.noise_margin = float(noise_margin)
        self.tx_power = float(tx_power)
        self._positions: Dict[NodeId, Tuple[float, float]] = {
            v: (float(x), float(y)) for v, (x, y) in network.positions.items()
        }
        self.radius = float(network.radius)
        self._torus = bool(network.torus)
        self._extent = (float(network.area.width), float(network.area.height))
        #: Noise floor: a max-range link has noise_margin × threshold SINR
        #: on a clear channel, so the unit disk stays exactly receivable.
        self.noise = (
            self.tx_power * self.radius ** -self.alpha
            / (self.threshold * self.noise_margin)
        )
        #: Transmissions currently (or recently) on the air, in air order,
        #: grouped by air time: ``(air_time, [sender, ...])``.
        self._active: Deque[Tuple[float, List[NodeId]]] = deque()
        #: Power memo, ``rx -> {tx: power}``, shared by :meth:`fresh` twins.
        self._powers: Dict[NodeId, Dict[NodeId, float]] = {
            v: {} for v in self._positions
        }

    def fresh(self, mac: Optional["MacModel"] = None) -> "SinrChannel":
        """A twin with an empty air schedule, zero counters and ``mac`` that
        shares this channel's geometry, parameters and power memo."""
        twin = copy.copy(self)
        ChannelModel.__init__(twin, mac=mac)
        twin._active = deque()
        return twin

    # -- geometry ----------------------------------------------------------

    def _power(self, tx: NodeId, rx: NodeId) -> float:
        """Received power of ``tx`` at ``rx`` under log-distance pathloss,
        memoised both ways (pathloss is symmetric bit for bit; off the torus
        squaring drops the offsets' sign exactly, so no ``abs``)."""
        positions = self._positions
        x1, y1 = positions[tx]
        x2, y2 = positions[rx]
        dx = x1 - x2
        dy = y1 - y2
        if self._torus:
            width, height = self._extent
            dx = abs(dx)
            dy = abs(dy)
            dx = min(dx, width - dx)
            dy = min(dy, height - dy)
        d = (dx * dx + dy * dy) ** 0.5
        if d < _MIN_DISTANCE:
            d = _MIN_DISTANCE
        power = self.tx_power * d ** -self.alpha
        self._powers[rx][tx] = self._powers[tx][rx] = power
        return power

    # -- ChannelModel interface --------------------------------------------

    def on_air(self, sender: NodeId, air_time: float) -> None:
        """Register the busy interval ``[air_time, air_time + latency)``."""
        assert self.medium is not None
        self.aired += 1
        # Entries older than two transmission times can no longer overlap
        # any delivery still pending (pending airs are >= now - latency).
        horizon = air_time - 2.0 * self.medium.latency
        active = self._active
        while active and active[0][0] <= horizon:
            active.popleft()
        if active and active[-1][0] == air_time:
            active[-1][1].append(sender)
        else:
            active.append((air_time, [sender]))

    def accepts(self, sender: NodeId, receiver: NodeId,
                air_time: float) -> bool:
        """SINR-threshold decision for one copy (pure, no randomness)."""
        if perf.enabled():
            with perf.stage("channel"):
                return self._decide(sender, receiver, air_time)
        return self._decide(sender, receiver, air_time)

    def _decide(self, sender: NodeId, receiver: NodeId,
                air_time: float) -> bool:
        assert self.medium is not None
        window = self.medium.latency * (1.0 - _EPS)
        row = self._powers[receiver]
        interference = 0.0
        interferers = 0
        for when, senders in self._active:
            if abs(when - air_time) >= window:
                continue
            wanted_slot = when == air_time
            for who in senders:
                if wanted_slot and who == sender:
                    continue  # the wanted signal itself
                if who == receiver:
                    # Half-duplex: the receiver's own radio was on the air.
                    self.half_duplex_drops += 1
                    self.collisions += 1
                    return False
                # ``or`` recomputes a missing power (or a zero one, to the
                # same zero), so the sum is unchanged either way.
                interference += row.get(who) or self._power(who, receiver)
                interferers += 1
        wanted = row.get(sender) or self._power(sender, receiver)
        if wanted >= self.threshold * (self.noise + interference):
            if interferers:
                self.captures += 1
            return True
        self.collisions += 1
        return False
