"""Phase 3: the CH_HOP1 / CH_HOP2 coverage-set exchange.

Implements the paper's two-round neighbourhood exchange:

* every non-clusterhead ``v`` broadcasts ``CH_HOP1(v)`` — its 1-hop
  neighbouring clusterheads (its own head starred);
* a non-clusterhead ``v`` hearing ``CH_HOP1(w)`` records 2-hop clusterhead
  entries, and once it has heard from **all** its non-clusterhead
  neighbours broadcasts ``CH_HOP2(v)`` with those entries;
* a clusterhead assembles ``C2`` from its neighbours' CH_HOP1 and ``C3``
  from their CH_HOP2, removing from ``C3`` anything already in ``C2``.

The recorded entry set depends on the coverage policy:

* **2.5-hop** (the paper's detailed protocol): ``v`` records only the
  *sender's own head* ``head(w)``, and only if it is not adjacent to ``v``;
* **3-hop** ("the process with the 3-hop coverage set is similar"): ``v``
  records *every* clusterhead in ``CH_HOP1(w)`` not adjacent to ``v`` — the
  extra entries are exactly why the 3-hop set costs more to maintain, which
  the ablation bench quantifies via message volume.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from repro.coverage.entries import CoverageSet, WitnessPair, freeze_witnesses
from repro.errors import ProtocolError
from repro.protocols.clustering import DECIDED, HEAD, ROLE
from repro.protocols.hello import NEIGHBOURS
from repro.sim.messages import ChHop1, ChHop2, Message
from repro.sim.network import SimNetwork
from repro.sim.node import SimNode
from repro.types import CoveragePolicy, NodeId, NodeRole

HOP2_ENTRIES = "coverage.hop2_entries"      #: non-head: ch -> {via w}
HOP1_PENDING = "coverage.hop1_pending"      #: non-head: senders still awaited
C2_RAW = "coverage.c2"                      #: head: ch -> {direct witness v}
C3_RAW = "coverage.c3"                      #: head: ch -> {(v, w) pairs}
HOPS_PENDING = "coverage.msgs_pending"      #: head: CH_HOP1/2 still awaited


def _neighbour_heads(node: SimNode) -> FrozenSet[NodeId]:
    """Clusterheads adjacent to ``node``, from the clustering declarations."""
    decided: Dict[NodeId, tuple] = node.state[DECIDED]  # type: ignore[assignment]
    return frozenset(
        u for u, (role, _h) in decided.items() if role is NodeRole.CLUSTERHEAD
    )


class CoverageExchangeProtocol:
    """Message-driven coverage-set construction.

    Requires clustering to have completed: nodes must know their own role
    and their neighbours' declarations.

    Args:
        network: The simulated network.
        policy: Which coverage definition CH_HOP2 should realise.
    """

    def __init__(self, network: SimNetwork,
                 policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP) -> None:
        self.network = network
        self.policy = policy
        for node in network:
            if ROLE not in node.state:
                raise ProtocolError(
                    f"node {node.id}: clustering must run before coverage exchange"
                )
            neighbours: Set[NodeId] = node.state[NEIGHBOURS]  # type: ignore[assignment]
            decided: Dict[NodeId, tuple] = node.state[DECIDED]  # type: ignore[assignment]
            non_head_neighbours = {
                u for u in neighbours
                if decided[u][0] is not NodeRole.CLUSTERHEAD
            }
            if node.state[ROLE] is NodeRole.CLUSTERHEAD:
                node.state[C2_RAW] = {}
                node.state[C3_RAW] = {}
                # One CH_HOP1 and one CH_HOP2 expected per non-head neighbour
                # (every neighbour of a head is a non-head).
                node.state[HOPS_PENDING] = 2 * len(non_head_neighbours)
            else:
                node.state[HOP2_ENTRIES] = {}
                node.state[HOP1_PENDING] = set(non_head_neighbours)
            node.on(ChHop1, self._on_hop1)
            node.on(ChHop2, self._on_hop2)

    def start(self) -> None:
        """Non-clusterheads broadcast CH_HOP1 at time 0."""
        for node in self.network:
            if node.state[ROLE] is NodeRole.CLUSTERHEAD:
                continue
            self.network.sim.schedule(
                0.0, lambda n=node: self._send_hop1(n), priority=(node.id,)
            )
            # A non-head with no non-head neighbours owes an (empty) CH_HOP2
            # immediately — nothing will trigger it later.
            if not node.state[HOP1_PENDING]:
                self.network.sim.schedule(
                    0.0, lambda n=node: self._send_hop2(n), priority=(node.id,)
                )

    def _send_hop1(self, node: SimNode) -> None:
        heads = _neighbour_heads(node)
        own_head: NodeId = node.state[HEAD]  # type: ignore[assignment]
        node.send(ChHop1(origin=node.id, heads=heads, own_head=own_head))

    def _send_hop2(self, node: SimNode) -> None:
        entries: Dict[NodeId, Set[NodeId]] = node.state[HOP2_ENTRIES]  # type: ignore[assignment]
        node.send(
            ChHop2(
                origin=node.id,
                entries={ch: frozenset(ws) for ch, ws in entries.items()},
            )
        )

    # -- handlers --------------------------------------------------------------

    def _on_hop1(self, node: SimNode, sender: NodeId, message: Message) -> None:
        assert isinstance(message, ChHop1)
        if node.state[ROLE] is NodeRole.CLUSTERHEAD:
            c2: Dict[NodeId, Set[NodeId]] = node.state[C2_RAW]  # type: ignore[assignment]
            for ch in message.heads:
                if ch == node.id:
                    continue
                c2.setdefault(ch, set()).add(sender)
            self._head_progress(node)
            return
        # Non-clusterhead: accumulate 2-hop clusterhead entries.
        my_heads = _neighbour_heads(node)
        entries: Dict[NodeId, Set[NodeId]] = node.state[HOP2_ENTRIES]  # type: ignore[assignment]
        if self.policy is CoveragePolicy.TWO_FIVE_HOP:
            candidates = (message.own_head,)
        else:
            candidates = tuple(message.heads)
        for ch in candidates:
            if ch in my_heads:
                continue  # "the clusterhead ... is a neighbor of v: ignore"
            entries.setdefault(ch, set()).add(sender)
        pending: Set[NodeId] = node.state[HOP1_PENDING]  # type: ignore[assignment]
        pending.discard(sender)
        if not pending:
            node.state[HOP1_PENDING] = None  # fire exactly once
            self._send_hop2(node)

    def _on_hop2(self, node: SimNode, sender: NodeId, message: Message) -> None:
        assert isinstance(message, ChHop2)
        if node.state[ROLE] is not NodeRole.CLUSTERHEAD:
            return  # CH_HOP2 is consumed by clusterheads only
        c3: Dict[NodeId, Set[WitnessPair]] = node.state[C3_RAW]  # type: ignore[assignment]
        for ch, vias in message.entries.items():
            if ch == node.id:
                continue
            for w in vias:
                c3.setdefault(ch, set()).add((sender, w))
        self._head_progress(node)

    def _head_progress(self, node: SimNode) -> None:
        node.state[HOPS_PENDING] = int(node.state[HOPS_PENDING]) - 1  # type: ignore[arg-type]

    # -- extraction -------------------------------------------------------------

    def coverage_set_of(self, head: NodeId) -> CoverageSet:
        """Assemble the coverage set a clusterhead gathered on the air.

        Raises:
            ProtocolError: if the head is still awaiting messages.
        """
        node = self.network.node(head)
        if node.state.get(ROLE) is not NodeRole.CLUSTERHEAD:
            raise ProtocolError(f"node {head} is not a clusterhead")
        if int(node.state[HOPS_PENDING]) > 0:  # type: ignore[arg-type]
            raise ProtocolError(
                f"head {head} still awaits {node.state[HOPS_PENDING]} messages"
            )
        c2_raw: Dict[NodeId, Set[NodeId]] = node.state[C2_RAW]  # type: ignore[assignment]
        c3_raw: Dict[NodeId, Set[WitnessPair]] = node.state[C3_RAW]  # type: ignore[assignment]
        c2 = set(c2_raw)
        c3 = {ch for ch in c3_raw if ch not in c2 and ch != head}
        direct = {ch: set(vs) for ch, vs in c2_raw.items()}
        indirect = {ch: set(c3_raw[ch]) for ch in c3}
        dfz, ifz = freeze_witnesses(direct, indirect)
        return CoverageSet(
            head=head,
            policy=self.policy,
            c2=frozenset(c2),
            c3=frozenset(c3),
            direct_witnesses=dfz,
            indirect_witnesses=ifz,
        )

    def all_coverage_sets(self) -> Dict[NodeId, CoverageSet]:
        """Coverage sets of every clusterhead."""
        return {
            node.id: self.coverage_set_of(node.id)
            for node in self.network
            if node.state.get(ROLE) is NodeRole.CLUSTERHEAD
        }
