"""The unit-disk wireless broadcast medium and its realism overlays.

A transmission by node ``s`` is delivered to every unit-disk neighbour of
``s`` after ``latency`` time units.  By default that reproduces the paper's
assumption of collision/contention handling below the network layer; three
*overlay* knobs degrade it without ever mutating the :class:`Graph`:

* an i.i.d. per-delivery **loss probability** (the robustness experiments'
  knob — delivery becomes a property of the protocol, not a guarantee);
* a :class:`FaultHook` (crashes, link cuts, loss/duplication windows —
  :class:`repro.faults.injector.FaultInjector` is the implementation),
  consulted at transmit and delivery time;
* a :class:`~repro.channel.model.ChannelModel` (the PHY/MAC seam, same
  overlay style): a contention MAC decides *when* a transmission airs, and
  an interference model such as :class:`~repro.channel.sinr.SinrChannel`
  decides per copy whether it survives the air.  The identity
  :class:`~repro.channel.model.IdealChannel` leaves the medium bit-exact.

Composition order is fixed and deterministic: the fault hook gates the
sender first (a crashed radio airs nothing and interferes with nothing),
the loss draw and the hook's per-link copies apply at air time, and at
delivery time the receiver's crash gate runs before the channel's capture
decision.  Simultaneous deliveries fire in ``(sender id, receiver id)``
order, matching the centralised algorithms' tie-breaking (see
:mod:`repro.sim.events`).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - layering: channel imports stay lazy
    from repro.channel.model import ChannelModel
from repro.graph.adjacency import Graph
from repro.rng import RngLike, ensure_rng
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.trace import TraceRecorder
from repro.types import NodeId

#: A receiver callback: (receiver, sender, message) -> None.
DeliveryHandler = Callable[[NodeId, NodeId, Message], None]


class FaultHook:
    """Duck-typed hook consulted by the medium on every transmission.

    A hook models faults *above* the i.i.d. loss knob without mutating the
    topology.  :meth:`can_transmit` gates the sender at transmit time (a
    crashed radio emits nothing — the transmission is not even traced);
    :meth:`copies` decides, per receiver, how many copies of the packet
    cross the link (``0`` for a cut link or a loss-window drop, ``2`` for a
    duplication fault, ``1`` normally), sampled at transmit time because
    that is when the signal crosses the channel; :meth:`can_deliver` gates
    the receiver at **delivery** time — a node that crashes while a packet
    is in flight hears nothing, even though the packet was validly sent.
    :class:`repro.faults.injector.FaultInjector` is the implementation;
    this base class is the identity hook.
    """

    def can_transmit(self, sender: NodeId) -> bool:
        """Whether ``sender``'s radio is currently able to transmit."""
        return True

    def copies(self, sender: NodeId, receiver: NodeId) -> int:
        """Number of copies crossing the ``sender -> receiver`` link."""
        return 1

    def can_deliver(self, receiver: NodeId) -> bool:
        """Whether ``receiver`` is up at the moment of delivery."""
        return True


def _validate_loss(probability: float) -> None:
    if not (0.0 <= probability <= 1.0):
        raise SimulationError(
            f"loss probability must be in [0, 1], got {probability}"
        )


class WirelessMedium:
    """Broadcast channel bound to a simulator and a topology.

    Args:
        sim: The event engine.
        graph: The unit disk graph defining who hears whom.
        latency: Transmission delay in time units (the paper's unit delay).
        loss_probability: Per-delivery drop chance (0 = ideal channel).
        rng: Seed or generator (used only when losses are enabled).
        trace: Optional shared recorder; one is created when omitted.
        channel: Optional :class:`~repro.channel.model.ChannelModel`
            overlay (PHY/MAC realism); ``None`` keeps the bare medium.
    """

    def __init__(
        self,
        sim: Simulator,
        graph: Graph,
        *,
        latency: float = 1.0,
        loss_probability: float = 0.0,
        rng: RngLike = None,
        trace: Optional[TraceRecorder] = None,
        channel: Optional["ChannelModel"] = None,
    ) -> None:
        if latency <= 0:
            raise SimulationError(f"latency must be positive, got {latency}")
        _validate_loss(loss_probability)
        self.sim = sim
        self.graph = graph
        self.latency = latency
        self.loss_probability = loss_probability
        self._rng = ensure_rng(rng) if loss_probability > 0.0 else None
        self.trace = trace if trace is not None else TraceRecorder()
        self._receivers: Dict[NodeId, DeliveryHandler] = {}
        #: Sender -> its neighbours in ascending id order.  A medium's
        #: graph is fixed for its lifetime, so this never needs clearing.
        self._sorted_neighbours: Dict[NodeId, Tuple[NodeId, ...]] = {}
        #: Optional fault filter (see :class:`FaultHook`); ``None`` = ideal.
        self.fault_hook: Optional[FaultHook] = None
        #: Optional PHY/MAC overlay; ``None`` = the bare instant medium.
        self.channel: Optional["ChannelModel"] = None
        if channel is not None:
            self.set_channel(channel)

    def set_channel(self, channel: Optional["ChannelModel"]) -> None:
        """Attach (or with ``None`` detach) the channel-model overlay.

        Binding hands the model the medium so it can read the topology,
        latency and clock; the unit-disk graph itself is never mutated, so
        detaching restores the bare medium bit-for-bit.
        """
        self.channel = channel
        if channel is not None:
            channel.bind(self)

    def set_loss(self, probability: float, rng: RngLike = None) -> None:
        """Reconfigure the loss model mid-run.

        Used by robustness experiments that build structures on an ideal
        channel and then degrade the data plane.
        """
        _validate_loss(probability)
        self.loss_probability = probability
        self._rng = ensure_rng(rng) if probability > 0.0 else None

    def attach(self, node: NodeId, handler: DeliveryHandler) -> None:
        """Register the delivery handler for ``node``."""
        if node not in self.graph:
            raise SimulationError(f"cannot attach unknown node {node}")
        self._receivers[node] = handler

    def _neighbours_sorted(self, sender: NodeId) -> Tuple[NodeId, ...]:
        """``sender``'s neighbours in ascending id order (cached per graph)."""
        cached = self._sorted_neighbours
        if sender not in cached:
            cached[sender] = tuple(sorted(self.graph.neighbours_view(sender)))
        return cached[sender]

    def transmit(self, sender: NodeId, message: Message) -> None:
        """Broadcast ``message`` from ``sender`` to all its neighbours.

        With a channel attached, its MAC may defer the on-air instant (the
        wait is scheduled through the event engine) or drop the packet
        outright; a zero delay airs inline, preserving the bare medium's
        event structure exactly.
        """
        if sender not in self.graph:
            raise SimulationError(f"unknown sender {sender}")
        if self.fault_hook is not None and \
                not self.fault_hook.can_transmit(sender):
            return  # crashed radio: nothing on the air, nothing traced
        if self.channel is None:
            self._air(sender, message)
            return
        delay = self.channel.air_delay(sender)
        if delay is None:
            return  # MAC attempt budget exhausted; counted by the MAC
        if delay <= 0.0:
            self._air(sender, message)
        else:
            self.sim.schedule(delay, partial(self._air, sender, message),
                              priority=(sender,))

    def _air(self, sender: NodeId, message: Message) -> None:
        """Put ``message`` on the air *now* and schedule its deliveries.

        Receivers are visited in ascending id order.  For each, the i.i.d.
        loss draw comes first (the signal is corrupted at the receiver),
        then the fault hook's ``copies`` (0 for a crashed receiver or a cut
        link, 2 under a duplication fault).  That draw order is fixed, so
        a seeded run is bit-reproducible.
        """
        air_time = self.sim.now
        if self.channel is not None:
            self.channel.on_air(sender, air_time)
        self.trace.record(air_time, sender, message)
        hook = self.fault_hook
        rng = self._rng
        loss = self.loss_probability
        handlers = self._receivers
        schedule = self.sim.schedule
        latency = self.latency
        deliver = self._deliver_if_up
        for receiver in self._neighbours_sorted(sender):
            if rng is not None and rng.random() < loss:
                continue
            copies = 1 if hook is None else hook.copies(sender, receiver)
            handler = handlers.get(receiver)
            if copies <= 0 or handler is None:
                continue  # no signal, or a node that runs no protocol
            for _ in range(copies):
                schedule(latency,
                         partial(deliver, handler, receiver, sender, message,
                                 air_time),
                         priority=(sender, receiver))

    def _deliver_if_up(self, handler: DeliveryHandler, receiver: NodeId,
                       sender: NodeId, message: Message,
                       air_time: float = 0.0) -> None:
        """Hand the packet over unless the receiver is down *right now*.

        Gate order is part of the determinism contract: the fault hook's
        crash gate runs before the channel's capture decision (a packet a
        dead node never hears cannot count as a collision).
        """
        if self.fault_hook is not None and \
                not self.fault_hook.can_deliver(receiver):
            return
        if self.channel is not None and \
                not self.channel.accepts(sender, receiver, air_time):
            return
        handler(receiver, sender, message)


class CollisionMedium(WirelessMedium):
    """A slotted medium where simultaneous arrivals at a receiver collide.

    Models the half of the broadcast-storm problem the paper assumes away:
    two packets arriving at a host in the same time slot destroy each other
    (neither is delivered; both count as :attr:`collisions`).  Transmissions
    are recorded at transmit time, so every arrival at a given slot is known
    before the first delivery of that slot fires (the engine processes
    events in time order and ``latency > 0``), making the collision check
    exact rather than probabilistic.

    Protocols that want to *survive* on this medium must desynchronise
    their relays — see the ``jitter_slots`` option of the distributed
    broadcast protocols.
    """

    def set_channel(self, channel: Optional["ChannelModel"]) -> None:
        """Reject channel overlays — the slot-collision rule *is* the PHY.

        :class:`CollisionMedium` and :class:`~repro.channel.model.ChannelModel`
        are alternative realism layers; compose a
        :class:`~repro.channel.sinr.SinrChannel` with a plain
        :class:`WirelessMedium` for the SINR treatment of the same effect.
        """
        if channel is not None:
            raise SimulationError(
                "CollisionMedium cannot carry a ChannelModel — attach the "
                "channel to a plain WirelessMedium instead"
            )
        super().set_channel(channel)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (arrival time, receiver) -> number of packets arriving together.
        self._arrivals: Dict[tuple, int] = {}
        self.collisions = 0
        #: Collision accounting can be suspended (e.g. while construction
        #: phases run under the paper's perfect-MAC assumption) and enabled
        #: only for the data plane under study.
        self.enabled = True

    def transmit(self, sender: NodeId, message: Message) -> None:
        """Broadcast; deliveries that share a (slot, receiver) collide.

        Fault semantics differ from the loss knob on purpose: a cut link
        means *no signal* at that receiver (no arrival is counted), whereas
        a lossy delivery was physically transmitted and still occupies the
        slot.  A duplicated packet counts as two arrivals — a multipath
        echo destroys itself on a collision MAC.  A crashed receiver is
        handled at delivery time (:meth:`FaultHook.can_deliver`): the
        signal reaches its antenna but nobody is listening.
        """
        if not self.enabled:
            super().transmit(sender, message)
            return
        if sender not in self.graph:
            raise SimulationError(f"unknown sender {sender}")
        hook = self.fault_hook
        if hook is not None and not hook.can_transmit(sender):
            return
        self.trace.record(self.sim.now, sender, message)
        arrival = self.sim.now + self.latency
        for receiver in self._neighbours_sorted(sender):
            lost = self._rng is not None and \
                self._rng.random() < self.loss_probability
            copies = 1 if hook is None else hook.copies(sender, receiver)
            if copies <= 0:
                continue  # no signal reaches this receiver at all
            key = (arrival, receiver)
            self._arrivals[key] = self._arrivals.get(key, 0) + copies
            if lost:
                continue
            handler = self._receivers.get(receiver)
            if handler is None:
                continue
            for _ in range(copies):
                self.sim.schedule(
                    self.latency,
                    partial(self._deliver_or_collide, handler, receiver,
                            sender, message, key),
                    priority=(sender, receiver),
                )

    def _deliver_or_collide(self, handler: DeliveryHandler, receiver: NodeId,
                            sender: NodeId, message: Message, key: tuple) -> None:
        if self._arrivals.get(key, 0) > 1:
            self.collisions += 1
            return
        self._deliver_if_up(handler, receiver, sender, message)
