"""Backbone maintenance under mobility (extension).

The paper motivates the dynamic backbone by the cost of keeping a static
backbone fresh in a mobile network but evaluates static snapshots only.
This package makes the argument measurable: :class:`KernelMobilitySession`
drives a network with a mobility model, re-derives clustering and backbone
each tick on arrays, and reports the churn — role flips, head
reassignments, gateway turnover and the number of clusterheads whose
coverage sets or selections changed (i.e. how much of the CH_HOP / GATEWAY
signalling would have to be repeated).  Fed two consecutive backbones,
:func:`resignalling_messages` counts the messages an incremental maintainer
would resend, and :func:`rebuild_messages` the cost of rebuilding from
scratch instead.

The session is tested tick for tick against a from-scratch object-layer
rebuild (``tests/mobility_oracle.py``).
"""

from repro.maintenance.stability import rebuild_messages, resignalling_messages
from repro.maintenance.kernels import KernelMobilitySession, KernelTickReport

__all__ = [
    "resignalling_messages",
    "rebuild_messages",
    "KernelMobilitySession",
    "KernelTickReport",
]
