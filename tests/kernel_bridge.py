"""Single-trial bridges from the broadcast kernels back to the object layer.

The kernels (:mod:`repro.broadcast.kernels`) return per-row arrays; these
helpers turn one kernel run into the :class:`BroadcastResult` /
:class:`DynamicBroadcast` the reference algorithms return, so the
equivalence tests can compare the two routes with ``==``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

import numpy as np

from repro.broadcast.kernels import KernelAssets, flooding_rows, sd_rows, si_rows
from repro.broadcast.result import BroadcastResult
from repro.broadcast.sd_cds import DynamicBroadcast
from repro.graph.csr import CSRGraph
from repro.types import CoveragePolicy, NodeId, PruningLevel


def _reception_mapping(
    csr: CSRGraph, time: np.ndarray
) -> Dict[NodeId, int]:
    rows = np.flatnonzero(time >= 0)
    ids = csr.ids
    return dict(zip(ids[rows].tolist(), time[rows].tolist()))


def flooding_result(csr: CSRGraph, source: NodeId) -> BroadcastResult:
    """Kernel-backed :func:`repro.broadcast.flooding.blind_flooding`."""
    src = csr.row_of(source)
    time, _ = flooding_rows(csr, np.asarray([src]))
    reception = _reception_mapping(csr, time)
    received = frozenset(reception)
    return BroadcastResult(
        source=source,
        algorithm="blind-flooding",
        forward_nodes=received,
        received=received,
        reception_time=reception,
        transmissions=len(received),
    )


def si_result(
    csr: CSRGraph,
    backbone_rows: np.ndarray,
    source: NodeId,
    *,
    algorithm: str = "si-cds",
) -> BroadcastResult:
    """Kernel-backed SI-CDS broadcast over explicit backbone rows."""
    src = csr.row_of(source)
    relay_mask = np.zeros(csr.num_nodes, dtype=bool)
    relay_mask[np.asarray(backbone_rows, dtype=np.int64)] = True
    time, fwd = si_rows(csr, relay_mask, np.asarray([src]))
    reception = _reception_mapping(csr, time)
    forward = frozenset(csr.ids[np.flatnonzero(fwd)].tolist())
    return BroadcastResult(
        source=source,
        algorithm=algorithm,
        forward_nodes=forward,
        received=frozenset(reception),
        reception_time=reception,
        transmissions=len(forward),
    )


def sd_result(
    assets: KernelAssets,
    source: NodeId,
    *,
    policy: CoveragePolicy = CoveragePolicy.TWO_FIVE_HOP,
    pruning: PruningLevel = PruningLevel.FULL,
) -> DynamicBroadcast:
    """Kernel-backed :func:`repro.broadcast.sd_cds.broadcast_sd`."""
    csr = assets.csr
    run = sd_rows(
        csr,
        assets.head_row,
        assets.coverage(policy),
        np.asarray([assets.source_row(source)]),
        pruning=pruning,
    )
    ids = csr.ids
    reception = _reception_mapping(csr, run.time)
    forward = frozenset(ids[np.flatnonzero(run.forwarded)].tolist())
    forward_sets: Dict[NodeId, FrozenSet[NodeId]] = {
        int(ids[h]): frozenset() for h in run.done_heads.tolist()
    }
    fs_h = ids[run.fs_head]
    fs_g = ids[run.fs_gw]
    for h, g in zip(fs_h.tolist(), fs_g.tolist()):
        forward_sets[h] = forward_sets[h] | {g}
    pruned: Dict[NodeId, FrozenSet[NodeId]] = {
        int(ids[h]): frozenset() for h in run.done_heads.tolist()
    }
    pt_h = ids[run.pt_head]
    pt_c = ids[run.pt_ch]
    for h, c in zip(pt_h.tolist(), pt_c.tolist()):
        pruned[h] = pruned[h] | {c}
    result = BroadcastResult(
        source=source,
        algorithm=f"sd-cds[{policy.label},{pruning.value}]",
        forward_nodes=forward,
        received=frozenset(reception),
        reception_time=reception,
        transmissions=run.transmissions,
    )
    return DynamicBroadcast(
        result=result,
        forward_sets=forward_sets,
        pruned_targets=pruned,
        pruning=pruning,
    )
