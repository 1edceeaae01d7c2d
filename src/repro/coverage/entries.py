"""The :class:`CoverageSet` value object.

Holds, for one clusterhead ``u``:

* ``c2`` / ``c3`` — the 2-hop and 3-hop target clusterheads;
* ``direct_witnesses[ch]`` — neighbours ``v`` of ``u`` with ``ch ∈ N(v)``
  (the nodes whose CH_HOP1 announced ``ch``);
* ``indirect_witnesses[ch]`` — relay pairs ``(v, w)`` with
  ``u–v–w–ch`` a path (the CH_HOP2 entries ``ch[w]`` heard via ``v``).

Invariants enforced at construction: ``c2`` and ``c3`` are disjoint, ``u``
appears in neither, every target has at least one witness, and witness
endpoints are consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.errors import CoverageError
from repro.types import CoveragePolicy, NodeId

#: A 3-hop relay pair ``(v, w)``: ``u`` is adjacent to ``v``, ``v`` to ``w``,
#: and ``w`` to the target clusterhead.
WitnessPair = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class CoverageSet:
    """Coverage set of one clusterhead under one policy.

    Attributes:
        head: The owning clusterhead ``u``.
        policy: Which definition produced this set.
        c2: Clusterheads two hops from ``u``.
        c3: Distance-3 clusterheads included by the policy.
        direct_witnesses: For each ``ch ∈ c2``, the neighbours of ``u``
            adjacent to ``ch``.
        indirect_witnesses: For each ``ch ∈ c3``, the relay pairs reaching it.
    """

    head: NodeId
    policy: CoveragePolicy
    c2: FrozenSet[NodeId]
    c3: FrozenSet[NodeId]
    direct_witnesses: Mapping[NodeId, FrozenSet[NodeId]]
    indirect_witnesses: Mapping[NodeId, FrozenSet[WitnessPair]]

    def __post_init__(self) -> None:
        if self.c2 & self.c3:
            raise CoverageError(
                f"C2 and C3 of head {self.head} overlap: {sorted(self.c2 & self.c3)}"
            )
        if self.head in self.c2 or self.head in self.c3:
            raise CoverageError(f"head {self.head} appears in its own coverage set")
        if set(self.direct_witnesses) != set(self.c2):
            raise CoverageError(
                f"direct witnesses of head {self.head} do not match C2"
            )
        if set(self.indirect_witnesses) != set(self.c3):
            raise CoverageError(
                f"indirect witnesses of head {self.head} do not match C3"
            )
        for ch, vs in self.direct_witnesses.items():
            if not vs:
                raise CoverageError(f"2-hop target {ch} of {self.head} has no witness")
        for ch, pairs in self.indirect_witnesses.items():
            if not pairs:
                raise CoverageError(f"3-hop target {ch} of {self.head} has no witness")

    @property
    def all_targets(self) -> FrozenSet[NodeId]:
        """``C(u) = C2(u) ∪ C3(u)``."""
        return self.c2 | self.c3

    @property
    def size(self) -> int:
        """Number of target clusterheads ``|C(u)|``."""
        return len(self.c2) + len(self.c3)

    def maintenance_cost(self) -> int:
        """A proxy for the state a real clusterhead must keep refreshed.

        Counts one unit per target plus one per recorded witness; the paper's
        motivation for the 2.5-hop policy is exactly that this is smaller
        than for the 3-hop policy.
        """
        return (
            self.size
            + sum(len(v) for v in self.direct_witnesses.values())
            + sum(len(p) for p in self.indirect_witnesses.values())
        )

    def restricted(self, targets: FrozenSet[NodeId]) -> "CoverageSet":
        """The coverage set with targets intersected with ``targets``.

        Used by the SD-CDS broadcast after pruning: the remaining coverage
        obligations keep their original witnesses.
        """
        c2 = self.c2 & targets
        c3 = self.c3 & targets
        return CoverageSet(
            head=self.head,
            policy=self.policy,
            c2=c2,
            c3=c3,
            direct_witnesses={ch: self.direct_witnesses[ch] for ch in c2},
            indirect_witnesses={ch: self.indirect_witnesses[ch] for ch in c3},
        )


def freeze_witnesses(
    direct: Dict[NodeId, set],
    indirect: Dict[NodeId, set],
) -> Tuple[Dict[NodeId, FrozenSet[NodeId]], Dict[NodeId, FrozenSet[WitnessPair]]]:
    """Freeze mutable witness accumulators into the immutable mapping form."""
    return (
        {ch: frozenset(vs) for ch, vs in direct.items()},
        {ch: frozenset(pairs) for ch, pairs in indirect.items()},
    )
