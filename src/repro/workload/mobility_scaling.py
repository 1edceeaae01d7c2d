"""Mobility scaling study: backbone maintenance far beyond paper scale.

The maintenance extension quantifies the paper's "keeping a static
backbone fresh is costly" argument; an object-layer rebuild per tick tops
out around a few thousand nodes.  This study drives the array-native
:class:`~repro.maintenance.kernels.KernelMobilitySession` —
vectorised waypoint stepping, a CSR rebuild with an edge-key diff,
lowest-ID repair and array coverage/selection — and measures, for fixed
average degree and growing n:

* maintenance throughput (ticks per second) and the per-tick split across
  the step / delta / repair kernel stages;
* topology volatility: link changes per tick;
* churn rates: head flips, member reaffiliations, gateway turnover and
  the number of heads whose CH_HOP/GATEWAY signalling would repeat.

Node speed scales with the transmission range (a fixed *range fraction*
per tick) so the per-tick volatility stays comparable across sizes —
matching the relative-mobility normalisation used in the maintenance
docs.  The n=100k point is the headline: mobility maintenance at three
orders of magnitude beyond the paper's n=100.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import perf
from repro.errors import ConfigurationError
from repro.exec.scenarios import scenario_positions
from repro.geometry.area import Area
from repro.geometry.disk import range_for_target_degree
from repro.geometry.mobility import RandomWaypoint
from repro.maintenance.kernels import KernelMobilitySession
from repro.rng import RngLike, derive_seed, ensure_rng

#: Signature of the streaming callback: ``(point)`` after each size.
PointCallback = Callable[["MobilityScalingPoint"], None]


@dataclass(frozen=True, slots=True)
class MobilityScalingPoint:
    """Measured maintenance behaviour at one network size.

    Attributes:
        n: Nodes placed.
        ticks: Mobility ticks run (after the untimed warm-up tick).
        steps_per_second: Maintenance throughput — ticks over the summed
            per-tick kernel wall clock.
        step_seconds / delta_seconds / repair_seconds: Total wall clock of
            the three kernel stages across all timed ticks.
        link_changes_per_tick: Mean undirected edges appeared+disappeared.
        head_flip_rate: Mean fraction of nodes whose head status flipped.
        reaffiliation_rate: Mean fraction of nodes reassigned to a new
            head without changing role.
        gateway_turnover_per_tick: Mean gateways gained plus lost.
        resignalling_per_tick: Mean surviving heads whose coverage set or
            gateway selection changed.
        peak_rss_bytes: Process peak RSS after the point (0 if unknown).
    """

    n: int
    ticks: int
    steps_per_second: float
    step_seconds: float
    delta_seconds: float
    repair_seconds: float
    link_changes_per_tick: float
    head_flip_rate: float
    reaffiliation_rate: float
    gateway_turnover_per_tick: float
    resignalling_per_tick: float
    peak_rss_bytes: int = 0

    @property
    def maintenance_seconds(self) -> float:
        """Total kernel wall clock across the timed ticks."""
        return self.step_seconds + self.delta_seconds + self.repair_seconds


def _kernel_session(
    n: int,
    average_degree: float,
    speed_fraction: float,
    scenario_root: int,
    rng: np.random.Generator,
) -> KernelMobilitySession:
    """Build a fixed-density kernel session at size ``n``.

    The area grows linearly with ``n`` (constant density), the radius is
    calibrated to ``average_degree``, and the waypoint speed band is
    ``[0.5, 1.5] * speed_fraction * radius`` per unit time — so each tick
    moves nodes the same *fraction of the transmission range* at every
    size.
    """
    side = 100.0 * (n / 100.0) ** 0.5
    area = Area(side, side)
    radius = range_for_target_degree(n, average_degree, area)
    pts = scenario_positions(n, area, root=scenario_root)
    speed = speed_fraction * radius
    mobility = RandomWaypoint(
        speed_range=(0.5 * speed, 1.5 * speed),
        pause_time=0.0,
        area=area,
        rng=rng,
    )
    return KernelMobilitySession(pts, radius, mobility, area=area)


def run_mobility_scaling(
    *,
    ns: Sequence[int] = (2_000, 10_000, 100_000),
    ticks: int = 10,
    average_degree: float = 12.0,
    speed_fraction: float = 0.05,
    dt: float = 1.0,
    rng: RngLike = None,
    on_point: Optional[PointCallback] = None,
) -> List[MobilityScalingPoint]:
    """Run the maintenance kernels at each size and account every tick.

    Args:
        ns: Network sizes.
        average_degree: Fixed target degree across sizes.
        ticks: Timed mobility ticks per size (one extra warm-up tick runs
            untimed so the first measured delta is not the cold start).
        speed_fraction: Per-tick node speed as a fraction of the
            transmission range (relative mobility, size-independent).
        dt: Tick duration handed to the mobility model.
        rng: Seed or generator (drives placement caching and waypoints).
        on_point: Called with each finished :class:`MobilityScalingPoint`
            the moment its size completes, so an interrupted large-``n``
            run still reports every finished point.

    Returns:
        One :class:`MobilityScalingPoint` per size.
    """
    if ticks < 1:
        raise ConfigurationError(f"ticks must be >= 1, got {ticks}")
    generator = ensure_rng(rng)
    scenario_root = derive_seed(generator)
    points: List[MobilityScalingPoint] = []
    for n in ns:
        session = _kernel_session(
            n, average_degree, speed_fraction, scenario_root,
            np.random.default_rng(derive_seed(generator)),
        )
        session.step(dt)  # warm-up: cold caches, first grid repair
        reports = session.run(ticks, dt)
        step_s = sum(r.step_seconds for r in reports)
        delta_s = sum(r.delta_seconds for r in reports)
        repair_s = sum(r.repair_seconds for r in reports)
        total = step_s + delta_s + repair_s
        point = MobilityScalingPoint(
            n=n,
            ticks=ticks,
            steps_per_second=ticks / total if total > 0 else float("inf"),
            step_seconds=step_s,
            delta_seconds=delta_s,
            repair_seconds=repair_s,
            link_changes_per_tick=float(
                np.mean([r.link_changes for r in reports])
            ),
            head_flip_rate=float(np.mean([r.flipped for r in reports])) / n,
            reaffiliation_rate=float(
                np.mean([r.reassigned for r in reports])
            ) / n,
            gateway_turnover_per_tick=float(
                np.mean([r.gateways_gained + r.gateways_lost for r in reports])
            ),
            resignalling_per_tick=float(
                np.mean([r.resignalling for r in reports])
            ),
            peak_rss_bytes=perf.peak_rss_bytes(),
        )
        points.append(point)
        if on_point is not None:
            on_point(point)
    return points

