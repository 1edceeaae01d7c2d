"""Runtime fault injection over a :class:`~repro.sim.network.SimNetwork`.

The :class:`FaultInjector` is the imperative half of the fault subsystem:
the schedule compiler (:func:`repro.faults.schedule.apply_schedule`) — or a
test poking faults by hand — calls its mutators, and the injector answers
the medium's :class:`~repro.sim.medium.FaultHook` queries on every
transmission.  The key invariant is that the unit-disk :class:`Graph` is
**never mutated**: crashes and link cuts live in overlay sets consulted at
delivery-planning time, so protocols keep reading the true topology (their
neighbour knowledge is stale exactly the way a real node's is), mobility
can keep rebuilding the disk graph underneath, and removing the injector
restores the ideal medium bit-for-bit.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set

import numpy as np

from repro.errors import SimulationError
from repro.rng import RngLike, ensure_rng
from repro.sim.medium import FaultHook
from repro.sim.network import SimNetwork
from repro.types import Edge, NodeId, ordered_edge


class FaultInjector(FaultHook):
    """Crash/link/loss/duplication faults over a running simulation.

    Args:
        network: The simulated network to attach to (its medium must not
            already carry a fault hook).
        rng: Seed or generator for the loss / duplication window draws
            (unused — and never advanced — while no window is active, so
            pure crash/partition fault runs stay draw-free deterministic).

    Attributes:
        suppressed_sends: Transmissions swallowed because the sender was
            down.
        blocked_by_node: Deliveries dropped because the receiver was down.
        blocked_by_link: Deliveries dropped on a cut link.
        window_losses: Deliveries dropped by an active loss window.
        duplications: Deliveries doubled by an active duplication window.
    """

    def __init__(self, network: SimNetwork, *, rng: RngLike = None) -> None:
        if network.medium.fault_hook is not None:
            raise SimulationError(
                "the network's medium already has a fault hook attached"
            )
        self.network = network
        self.sim = network.sim
        self._rng = ensure_rng(rng)
        self._down: Set[NodeId] = set()
        self._cut: Set[Edge] = set()
        self._loss: List[float] = []
        self._dup: List[float] = []
        self.suppressed_sends = 0
        self.blocked_by_node = 0
        self.blocked_by_link = 0
        self.window_losses = 0
        self.duplications = 0
        network.medium.fault_hook = self

    # -- node faults -------------------------------------------------------

    def crash(self, node: NodeId) -> None:
        """Take ``node`` down: it neither transmits nor receives."""
        if node not in self.network.graph:
            raise SimulationError(f"cannot crash unknown node {node}")
        self._down.add(node)

    def recover(self, node: NodeId) -> None:
        """Bring ``node`` back up (a no-op if it was not down)."""
        self._down.discard(node)

    def is_up(self, node: NodeId) -> bool:
        """Whether ``node`` is currently operational."""
        return node not in self._down

    # -- link faults -------------------------------------------------------

    def cut_link(self, u: NodeId, v: NodeId) -> None:
        """Force link ``{u, v}`` down, overriding the disk graph.

        The pair need not currently be a unit-disk edge — a cut is an
        overlay that applies whenever the two nodes would otherwise hear
        each other (e.g. after mobility brings them into range).
        """
        for x in (u, v):
            if x not in self.network.graph:
                raise SimulationError(f"cannot cut link at unknown node {x}")
        self._cut.add(ordered_edge(u, v))

    def restore_link(self, u: NodeId, v: NodeId) -> None:
        """Lift the fault on link ``{u, v}`` (no-op if not cut)."""
        self._cut.discard(ordered_edge(u, v))

    def partition(self, nodes: Iterable[NodeId]) -> FrozenSet[Edge]:
        """Cut every current boundary link between ``nodes`` and the rest.

        Returns:
            The links actually cut by this call (pass to :meth:`heal`);
            links already down are not re-cut, so partitions compose.
        """
        region = set(nodes)
        graph = self.network.graph
        cut: Set[Edge] = set()
        for v in sorted(region):
            if v not in graph:
                raise SimulationError(
                    f"cannot partition around unknown node {v}"
                )
            for w in graph.neighbours_view(v):
                if w in region:
                    continue
                edge = ordered_edge(v, w)
                if edge not in self._cut:
                    cut.add(edge)
        self._cut |= cut
        return frozenset(cut)

    def heal(self, edges: Iterable[Edge]) -> None:
        """Restore previously-cut links (the inverse of :meth:`partition`)."""
        for u, v in edges:
            self._cut.discard(ordered_edge(u, v))

    # -- loss / duplication windows ---------------------------------------

    def push_loss(self, probability: float) -> None:
        """Open an extra-loss window (stacks with any already active)."""
        if not (0.0 <= probability <= 1.0):
            raise SimulationError(
                f"loss probability must be in [0, 1], got {probability}"
            )
        self._loss.append(probability)

    def pop_loss(self, probability: float) -> None:
        """Close one window previously opened with that probability."""
        self._loss.remove(probability)

    def push_duplication(self, probability: float) -> None:
        """Open a duplication window."""
        if not (0.0 <= probability <= 1.0):
            raise SimulationError(
                f"duplication probability must be in [0, 1], got {probability}"
            )
        self._dup.append(probability)

    def pop_duplication(self, probability: float) -> None:
        """Close one duplication window."""
        self._dup.remove(probability)

    # -- FaultHook interface ----------------------------------------------

    def can_transmit(self, sender: NodeId) -> bool:
        """A crashed radio emits nothing."""
        if sender in self._down:
            self.suppressed_sends += 1
            return False
        return True

    def copies(self, sender: NodeId, receiver: NodeId) -> int:
        """Copies crossing this link: 0 (cut/window loss), 1, or 2."""
        if self._cut and ordered_edge(sender, receiver) in self._cut:
            self.blocked_by_link += 1
            return 0
        for p in self._loss:
            if self._rng.random() < p:
                self.window_losses += 1
                return 0
        for p in self._dup:
            if self._rng.random() < p:
                self.duplications += 1
                return 2
        return 1

    def can_deliver(self, receiver: NodeId) -> bool:
        """A crashed receiver hears nothing — even packets already in
        flight when it went down (the medium asks at delivery time)."""
        if receiver in self._down:
            self.blocked_by_node += 1
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(down={len(self._down)}, cut={len(self._cut)}, "
            f"loss_windows={len(self._loss)}, dup_windows={len(self._dup)})"
        )


def assert_graph_untouched(before: "np.ndarray", network: SimNetwork) -> None:
    """Raise if the network's adjacency changed (property-test helper).

    Args:
        before: ``network.graph.adjacency_matrix()[0]`` captured before the
            faulted run.
        network: The network after the run.
    """
    after, _ = network.graph.adjacency_matrix()
    if before.shape != after.shape or not bool((before == after).all()):
        raise AssertionError(
            "fault injection mutated the underlying Graph"
        )
