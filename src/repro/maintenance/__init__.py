"""Backbone maintenance under mobility (extension).

The paper motivates the dynamic backbone by the cost of keeping a static
backbone fresh in a mobile network but evaluates static snapshots only.
This package makes the argument measurable: drive a network with a mobility
model, re-derive clustering/backbone each tick, and account the churn —
role flips, head reassignments, gateway turnover and the number of
clusterheads whose coverage sets changed (i.e. how much of the CH_HOP /
GATEWAY signalling would have to be repeated).  Fed two consecutive
backbones, :func:`resignalling_messages` counts the messages an incremental
maintainer would resend, and :func:`rebuild_messages` the cost of rebuilding
from scratch instead.

Two routes compute the same ticks: :class:`MobilitySession` rebuilds the
object layer (dict/set graphs) from scratch, and above the CSR cutover it
hands each tick to :class:`KernelMobilitySession`, which rebuilds the
graph, coverage and gateway selection as arrays and repairs only the
clustering from the changed edges.  The object route is the oracle the
kernel route is tested against, tick for tick.
"""

from repro.maintenance.stability import (
    BackboneChurn,
    ClusterChurn,
    backbone_churn,
    cluster_churn,
    rebuild_messages,
    resignalling_messages,
)
from repro.maintenance.kernels import KernelMobilitySession, KernelTickReport
from repro.maintenance.session import MaintenanceReport, MobilitySession

__all__ = [
    "ClusterChurn",
    "BackboneChurn",
    "cluster_churn",
    "backbone_churn",
    "resignalling_messages",
    "rebuild_messages",
    "MobilitySession",
    "MaintenanceReport",
    "KernelMobilitySession",
    "KernelTickReport",
]
