"""Broadcast protocols and their accounting.

Four ways to broadcast a packet through a clustered MANET:

* :func:`~repro.broadcast.flooding.blind_flooding` — every node forwards
  once (the broadcast-storm baseline);
* :func:`~repro.broadcast.si_cds.broadcast_si` — flood restricted to a
  source-independent CDS (the static backbone or the MO_CDS);
* :func:`~repro.broadcast.sd_cds.broadcast_sd` — the paper's dynamic
  backbone: clusterheads select forward gateways on the fly, pruning their
  coverage sets with the piggybacked history;
* :func:`~repro.broadcast.dominant_pruning.broadcast_dominant_pruning` — a
  classic SD-CDS comparison point (Lim & Kim) included as an extension.

All return a :class:`~repro.broadcast.result.BroadcastResult` whose
``num_forward_nodes`` is the paper's Figure 7/8 metric.
"""

from repro.broadcast.delivery import check_full_delivery, delivery_ratio
from repro.broadcast.flooding import blind_flooding
from repro.broadcast.forwarding_tree import (
    ForwardingTree,
    broadcast_forwarding_tree,
    build_forwarding_tree,
)
from repro.broadcast.mpr import all_mpr_sets, broadcast_mpr, mpr_set
from repro.broadcast.passive_clustering import (
    PassiveClusteringBroadcast,
    PassiveState,
    broadcast_passive_clustering,
)
from repro.broadcast.rad import RadBroadcast, broadcast_rad
from repro.broadcast.result import BroadcastResult
from repro.broadcast.sd_cds import DynamicBroadcast, broadcast_sd
from repro.broadcast.si_cds import broadcast_si
from repro.broadcast.dominant_pruning import broadcast_dominant_pruning

__all__ = [
    "BroadcastResult",
    "blind_flooding",
    "broadcast_si",
    "broadcast_sd",
    "DynamicBroadcast",
    "broadcast_dominant_pruning",
    "check_full_delivery",
    "delivery_ratio",
    "broadcast_rad",
    "RadBroadcast",
    "broadcast_mpr",
    "mpr_set",
    "all_mpr_sets",
    "broadcast_forwarding_tree",
    "build_forwarding_tree",
    "ForwardingTree",
    "broadcast_passive_clustering",
    "PassiveClusteringBroadcast",
    "PassiveState",
]
