"""Cross-experiment scenario cache: draw each network sample once.

The paper's environment rejects disconnected samples, and at sparse
settings (d=6, n=20) most draws *are* disconnected — so the connected
network sample is the single most expensive ingredient of a trial.  Before
this cache, every experiment re-drew and re-rejected its own samples even
when figures 6, 7 and 8 wanted the *same* environment point.

A scenario is keyed by ``(n, degree, area, torus, root, index)``; its
random stream is derived from the key alone (not from any experiment's
trial stream), so any two experiments that agree on the environment and
trial index get the **same** connected sample — pairing across experiments,
not just within one.  Derived structures that are pure functions of the
graph are memoized on the scenario and evicted with it: the lowest-ID
clustering, the array route's kernel assets, and the figure drivers'
static 2.5-hop, static 3-hop and MO_CDS node sets.  Coverage sets are not
kept: they cost more memory than their once-per-trial rebuild costs time.

Sharing contract: cached :class:`~repro.graph.network.Network` objects (and
their clusterings) are handed to many trials — treat them as immutable, as
all library algorithms already do.  The cache is per-process: worker
processes of the ``process`` backend each warm their own copy, so the hit
rate there depends on which worker sees which index (the serial backend
always hits).
"""

from __future__ import annotations

import os
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.cluster.lowest_id import lowest_id_clustering
from repro.cluster.state import ClusterStructure
from repro.errors import ConfigurationError
from repro.geometry.area import Area
from repro.graph.network import Network
from repro.types import NodeId

#: Default bound on cached scenarios (override with the
#: ``REPRO_SCENARIO_CACHE_SIZE`` environment variable; 0 disables caching).
DEFAULT_MAXSIZE = int(os.environ.get("REPRO_SCENARIO_CACHE_SIZE", "1024"))


def _float_bits(x: float) -> int:
    """Stable 64-bit key material for a float (no equality-on-repr games)."""
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


@dataclass(frozen=True)
class ScenarioKey:
    """Identity of one network sample, independent of any experiment.

    Attributes:
        n: Number of nodes.
        degree: Target average degree.
        width/height: Working-area extents.
        torus: Whether distances wrap around the area.
        root: The environment's root seed (experiments sharing a root pair
            up; distinct roots stay independent).
        index: Trial index within the environment point.
    """

    n: int
    degree: float
    width: float
    height: float
    torus: bool
    root: int
    index: int

    def seed_sequence(self) -> np.random.SeedSequence:
        """The scenario's own random stream, derived from the key alone."""
        return np.random.SeedSequence((
            self.root & 0xFFFFFFFFFFFFFFFF,
            self.n,
            _float_bits(self.degree),
            _float_bits(self.width),
            _float_bits(self.height),
            int(self.torus),
            self.index,
        ))


class Scenario:
    """One cached sample: the network plus memoized derived structures."""

    __slots__ = ("network", "_clustering", "_kernel_assets", "_backbone_nodes")

    def __init__(self, network: Network) -> None:
        self.network = network
        self._clustering: Optional[ClusterStructure] = None
        # Lazily populated by repro.broadcast.kernels.scenario_assets —
        # typed as object to keep this module free of broadcast imports.
        self._kernel_assets: Optional[object] = None
        # Static 2.5-hop, static 3-hop and MO_CDS node sets (figure drivers).
        self._backbone_nodes: Optional[Tuple[FrozenSet[NodeId], ...]] = None

    @property
    def clustering(self) -> ClusterStructure:
        """Lowest-ID clustering of the sample (computed once, shared)."""
        if self._clustering is None:
            self._clustering = lowest_id_clustering(self.network.graph)
        return self._clustering


class ScenarioCache:
    """A bounded, thread-safe LRU of :class:`Scenario` objects."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 0:
            raise ConfigurationError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[ScenarioKey, Scenario]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: ScenarioKey) -> Scenario:
        """The scenario for ``key``, drawn on first use."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
            self.misses += 1
        # Draw outside the lock: sampling can take many rejection rounds,
        # and concurrent trials for *different* keys must not serialise.
        # A rare duplicate draw for the same key is deterministic anyway.
        entry = Scenario(self._draw(key))
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = entry
            while self.maxsize and len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return entry

    @staticmethod
    def _draw(key: ScenarioKey) -> Network:
        from repro.graph.generators import random_geometric_network

        return random_geometric_network(
            key.n,
            key.degree,
            area=Area(key.width, key.height),
            torus=key.torus,
            rng=np.random.default_rng(key.seed_sequence()),
        )

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        """``{"entries": ..., "hits": ..., "misses": ...}``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_DEFAULT_CACHE = ScenarioCache()


def get_scenario_cache() -> ScenarioCache:
    """The process-wide default cache (workers each hold their own)."""
    return _DEFAULT_CACHE


def connected_scenario(
    n: int,
    degree: float,
    *,
    area: Optional[Area] = None,
    torus: bool = False,
    root: int = 0,
    index: int = 0,
    cache: Optional[ScenarioCache] = None,
) -> Scenario:
    """The cached connected sample for one ``(environment, trial)`` point."""
    area = area or Area.paper()
    key = ScenarioKey(
        n=int(n), degree=float(degree), width=float(area.width),
        height=float(area.height), torus=bool(torus), root=int(root),
        index=int(index),
    )
    target = cache if cache is not None else _DEFAULT_CACHE
    if target.maxsize == 0:
        return Scenario(ScenarioCache._draw(key))
    return target.get(key)


def connected_network(
    n: int,
    degree: float,
    *,
    area: Optional[Area] = None,
    torus: bool = False,
    root: int = 0,
    index: int = 0,
    cache: Optional[ScenarioCache] = None,
) -> Network:
    """:func:`connected_scenario`, returning just the network."""
    return connected_scenario(
        n, degree, area=area, torus=torus, root=root, index=index,
        cache=cache,
    ).network


_POSITIONS: Dict[Tuple[int, int, int, int, int], np.ndarray] = {}
_POSITIONS_LOCK = threading.Lock()


def scenario_positions(
    n: int,
    area: Area,
    *,
    root: int = 0,
    index: int = 0,
) -> np.ndarray:
    """Cached uniform placements for samples that skip connectivity rejection.

    The scaling study processes the giant component of a raw placement
    rather than rejection-sampling connectivity (hopeless at n=3000); this
    gives it the same draw-once semantics, keyed like a scenario, while its
    pipeline-stage timings still measure construction on every run.  The
    returned array is shared — copy before mutating.
    """
    key = (int(n), _float_bits(area.width), _float_bits(area.height),
           int(root), int(index))
    with _POSITIONS_LOCK:
        pts = _POSITIONS.get(key)
    if pts is None:
        from repro.geometry.placement import uniform_placement

        seq = np.random.SeedSequence(
            (key[0], key[1], key[2], key[3] & 0xFFFFFFFFFFFFFFFF, key[4]))
        pts = uniform_placement(n, area, np.random.default_rng(seq))
        pts.setflags(write=False)
        with _POSITIONS_LOCK:
            _POSITIONS[key] = pts
    return pts
