"""Message accounting between consecutive static backbones.

:func:`resignalling_messages` counts exactly which protocol messages an
incremental maintainer of the static backbone would resend between two
snapshots, and :func:`rebuild_messages` what a from-scratch rebuild (as
:func:`repro.protocols.runner.run_distributed_build` sends) would cost
instead — the incremental-vs-rebuild saving the dynamic backbone renders
moot.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.backbone.static_backbone import Backbone
from repro.cluster.state import ClusterStructure
from repro.errors import ConfigurationError
from repro.types import NodeId


def _hop2_content(structure: ClusterStructure, v: NodeId) -> FrozenSet:
    """The CH_HOP2 entries non-head ``v`` announces (2.5-hop semantics)."""
    my_heads = structure.neighbouring_clusterheads(v)
    entries = set()
    for w in structure.topology.neighbours(v):
        if structure.is_clusterhead(w):
            continue
        ch = structure.head_of[w]
        if ch not in my_heads:
            entries.add((ch, w))
    return frozenset(entries)


def _gateway_message_cost(backbone: Backbone, head: NodeId) -> int:
    """One GATEWAY send plus the TTL-2 forwards by first-hop gateways."""
    gateways = backbone.selections[head].gateways
    return 1 + len(gateways & backbone.structure.topology.neighbours(head))


def resignalling_messages(before: Backbone, after: Backbone) -> Dict[str, int]:
    """Messages an incremental maintainer resends between two snapshots.

    * ``hello`` — nodes whose neighbour set changed re-beacon;
    * ``declaration`` — nodes whose clusterhead changed re-declare;
    * ``ch_hop1`` / ``ch_hop2`` — non-heads whose neighbouring-head list /
      2-hop head entries changed (a newly demoted head sends both);
    * ``gateway`` — new heads, and surviving heads whose gateway selection
      changed, re-issue GATEWAY (plus the TTL-2 forwards by their
      first-hop gateways).
    """
    old, new = before.structure, after.structure
    if set(old.head_of) != set(new.head_of):
        raise ConfigurationError("snapshots must cover the same node set")
    changed_edges = set(old.graph.edges()) ^ set(new.graph.edges())
    messages = {
        "hello": len({v for e in changed_edges for v in e}),
        "declaration": 0,
        "ch_hop1": 0,
        "ch_hop2": 0,
        "gateway": 0,
    }
    for v, head in new.head_of.items():
        if old.head_of[v] != head:
            messages["declaration"] += 1
        if head == v:
            continue  # heads do not send CH_HOP messages
        if old.is_clusterhead(v):
            messages["ch_hop1"] += 1
            messages["ch_hop2"] += 1
            continue
        if (old.neighbouring_clusterheads(v)
                != new.neighbouring_clusterheads(v)):
            messages["ch_hop1"] += 1
        if _hop2_content(old, v) != _hop2_content(new, v):
            messages["ch_hop2"] += 1
    for head in new.clusterheads:
        if (head not in old.clusterheads
                or before.selections[head].gateways
                != after.selections[head].gateways):
            messages["gateway"] += _gateway_message_cost(after, head)
    return messages


def rebuild_messages(backbone: Backbone) -> int:
    """Messages a from-scratch build of ``backbone`` sends.

    One HELLO and one declaration per node, CH_HOP1 and CH_HOP2 per
    non-head, and one GATEWAY per head plus its first-hop forwards.
    """
    structure = backbone.structure
    n = structure.graph.num_nodes
    non_heads = n - len(structure.clusterheads)
    return 2 * n + 2 * non_heads + sum(
        _gateway_message_cost(backbone, h) for h in structure.clusterheads
    )
