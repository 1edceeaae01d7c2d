"""Declarative, seed-deterministic fault schedules.

A :class:`FaultSchedule` is an ordered list of timed fault events — node
crash/recover, link down/up, region partition/heal, message loss and
duplication windows — that can be loaded from JSON (``from_spec``) and
compiled onto a running simulator with
:func:`apply_schedule`.  Event times are *relative to application time*:
applying a schedule after the control phases ran injects the faults into the
data plane only, matching the robustness experiments' split.

Determinism contract: a schedule is plain data; :func:`random_schedule`
derives one from a seed, and :func:`apply_schedule` registers its events
with an empty priority tuple, which sorts *before* every same-time delivery
(the medium uses ``(sender, receiver)`` priorities) — so fault state always
changes before the traffic of the same instant, in schedule order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Tuple

from repro.errors import ConfigurationError
from repro.graph.adjacency import Graph
from repro.rng import RngLike, ensure_rng
from repro.types import NodeId, ordered_edge

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """Base class: something happens to the infrastructure at ``time``."""

    time: float


@dataclass(frozen=True, slots=True)
class NodeDown(FaultEvent):
    """Node ``node`` crashes: it neither transmits nor receives."""

    node: NodeId


@dataclass(frozen=True, slots=True)
class NodeUp(FaultEvent):
    """Node ``node`` recovers (protocol state survives the outage)."""

    node: NodeId


@dataclass(frozen=True, slots=True)
class LinkDown(FaultEvent):
    """Link ``{u, v}`` goes down, overriding the unit-disk adjacency."""

    u: NodeId
    v: NodeId


@dataclass(frozen=True, slots=True)
class LinkUp(FaultEvent):
    """Link ``{u, v}`` comes back (if the disk graph still has it)."""

    u: NodeId
    v: NodeId


@dataclass(frozen=True, slots=True)
class Partition(FaultEvent):
    """Cut every link between ``nodes`` and the rest of the network.

    The boundary links are computed against the topology *at fire time*, and
    exactly those links are restored after ``duration`` (``math.inf`` never
    heals).
    """

    nodes: FrozenSet[NodeId]
    duration: float = math.inf


@dataclass(frozen=True, slots=True)
class LossWindow(FaultEvent):
    """Extra per-delivery loss ``probability`` for ``duration`` time units.

    Windows stack: concurrent windows drop independently (effective loss
    ``1 - prod(1 - p_i)``), on top of the medium's own loss knob.
    """

    probability: float
    duration: float


@dataclass(frozen=True, slots=True)
class DuplicationWindow(FaultEvent):
    """Deliveries arrive twice with ``probability`` for ``duration`` units."""

    probability: float
    duration: float


#: Stable JSON tag per event class.
_KINDS: Dict[str, type] = {
    "node-down": NodeDown,
    "node-up": NodeUp,
    "link-down": LinkDown,
    "link-up": LinkUp,
    "partition": Partition,
    "loss-window": LossWindow,
    "duplication-window": DuplicationWindow,
}

SPEC_FORMAT = "repro-fault-schedule"
SPEC_VERSION = 1


def _check_probability(p: float, what: str) -> None:
    if not (0.0 <= p <= 1.0):
        raise ConfigurationError(f"{what} must be in [0, 1], got {p}")


class FaultSchedule:
    """An immutable, time-sorted sequence of :class:`FaultEvent` objects.

    Args:
        events: The fault events; stored sorted by time (stable, so events
            given at the same instant keep their relative order).

    Raises:
        ConfigurationError: on a negative time, a non-positive window
            duration, or an out-of-range probability.
    """

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        evs = sorted(events, key=lambda e: e.time)
        for e in evs:
            if e.time < 0:
                raise ConfigurationError(
                    f"fault event time must be >= 0, got {e.time}"
                )
            if isinstance(e, (LossWindow, DuplicationWindow)):
                _check_probability(e.probability, "window probability")
                if not e.duration > 0:
                    raise ConfigurationError(
                        f"window duration must be positive, got {e.duration}"
                    )
            if isinstance(e, Partition) and not e.duration > 0:
                raise ConfigurationError(
                    f"partition duration must be positive, got {e.duration}"
                )
            if isinstance(e, (LinkDown, LinkUp)):
                ordered_edge(e.u, e.v)  # rejects self-loops
        self._events: Tuple[FaultEvent, ...] = tuple(evs)

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """The events in firing order."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self._events == other._events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({len(self._events)} events)"

    @property
    def horizon(self) -> float:
        """Time of the last scheduled state change (0.0 when empty).

        Window/partition ends count, so running the simulator past the
        horizon guarantees every transient fault has cleared (infinite
        partitions excepted).
        """
        t = 0.0
        for e in self._events:
            end = e.time
            if isinstance(e, (LossWindow, DuplicationWindow)):
                end += e.duration
            elif isinstance(e, Partition) and not math.isinf(e.duration):
                end += e.duration
            t = max(t, end)
        return t

    def crashed_nodes(self) -> FrozenSet[NodeId]:
        """Nodes that are down after the whole schedule has played out."""
        down: set = set()
        for e in self._events:
            if isinstance(e, NodeDown):
                down.add(e.node)
            elif isinstance(e, NodeUp):
                down.discard(e.node)
        return frozenset(down)

    def validate_against(self, graph: Graph) -> None:
        """Check that every referenced node exists in ``graph``."""
        for e in self._events:
            refs: Tuple[NodeId, ...] = ()
            if isinstance(e, (NodeDown, NodeUp)):
                refs = (e.node,)
            elif isinstance(e, (LinkDown, LinkUp)):
                refs = (e.u, e.v)
            elif isinstance(e, Partition):
                refs = tuple(e.nodes)
            for v in refs:
                if v not in graph:
                    raise ConfigurationError(
                        f"fault schedule references unknown node {v}"
                    )

    # -- JSON spec ---------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: dict) -> "FaultSchedule":
        """Build a schedule from a JSON document.

        The document is ``{"format": "repro-fault-schedule", "version": 1,
        "events": [...]}``; each event record carries its ``kind`` tag
        (``node-down``, ``link-up``, ``partition``, ``loss-window``, ...),
        its ``time`` and its fields (``node``; ``u``/``v``; ``nodes`` and a
        ``duration`` where ``null`` means never; ``probability`` and
        ``duration``).
        """
        if not isinstance(spec, dict) or spec.get("format") != SPEC_FORMAT:
            raise ConfigurationError("not a repro fault schedule document")
        if spec.get("version") != SPEC_VERSION:
            raise ConfigurationError(
                f"unsupported fault schedule version {spec.get('version')!r}"
            )
        events: List[FaultEvent] = []
        for rec in spec.get("events", ()):
            try:
                kind = _KINDS[rec["kind"]]
                time = float(rec["time"])
                if kind in (NodeDown, NodeUp):
                    events.append(kind(time=time, node=int(rec["node"])))
                elif kind in (LinkDown, LinkUp):
                    events.append(kind(time=time, u=int(rec["u"]),
                                       v=int(rec["v"])))
                elif kind is Partition:
                    duration = rec.get("duration")
                    events.append(Partition(
                        time=time,
                        nodes=frozenset(int(x) for x in rec["nodes"]),
                        duration=(math.inf if duration is None
                                  else float(duration)),
                    ))
                else:
                    events.append(kind(time=time,
                                       probability=float(rec["probability"]),
                                       duration=float(rec["duration"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"malformed fault schedule event {rec!r}: {exc}"
                ) from None
        return cls(events)


def random_schedule(
    graph: Graph,
    *,
    horizon: float = 20.0,
    crash_fraction: float = 0.1,
    recovery_fraction: float = 0.0,
    link_flap_fraction: float = 0.0,
    flap_downtime: float = 4.0,
    loss_windows: int = 0,
    loss_probability: float = 0.3,
    duplication_windows: int = 0,
    duplication_probability: float = 0.2,
    protect: Iterable[NodeId] = (),
    rng: RngLike = None,
) -> FaultSchedule:
    """Sample a fault schedule for ``graph``, deterministically from a seed.

    Args:
        graph: The topology the faults will hit (node/edge population).
        horizon: Crash and flap times are drawn uniformly in
            ``[0, horizon)``.
        crash_fraction: Fraction of nodes that crash (rounded down).
        recovery_fraction: Fraction of the crashed nodes that recover,
            uniformly within ``(crash time, horizon]``.
        link_flap_fraction: Fraction of edges that go down for
            ``flap_downtime`` and then come back.
        flap_downtime: Outage length of a flapped link.
        loss_windows: Number of extra loss bursts of ``loss_probability``.
        duplication_windows: Number of duplication bursts.
        protect: Nodes exempt from crashing (e.g. the broadcast source).
        rng: Seed or generator — same seed, same schedule, always.

    Returns:
        The sampled :class:`FaultSchedule`.
    """
    if not (0.0 <= crash_fraction <= 1.0):
        raise ConfigurationError(
            f"crash_fraction must be in [0, 1], got {crash_fraction}"
        )
    generator = ensure_rng(rng)
    protected = set(protect)
    events: List[FaultEvent] = []

    candidates = [v for v in graph.nodes() if v not in protected]
    n_crash = min(len(candidates), int(crash_fraction * graph.num_nodes))
    if n_crash:
        victims = sorted(
            int(v) for v in generator.choice(candidates, size=n_crash,
                                             replace=False)
        )
        n_recover = int(recovery_fraction * n_crash)
        for i, v in enumerate(victims):
            t = float(generator.uniform(0.0, horizon))
            events.append(NodeDown(time=t, node=v))
            if i < n_recover:
                events.append(NodeUp(
                    time=float(generator.uniform(t, horizon) + 1.0), node=v,
                ))

    edges = graph.edges()
    n_flap = min(len(edges), int(link_flap_fraction * len(edges)))
    if n_flap:
        picks = sorted(
            int(i) for i in generator.choice(len(edges), size=n_flap,
                                             replace=False)
        )
        for i in picks:
            u, v = edges[i]
            t = float(generator.uniform(0.0, horizon))
            events.append(LinkDown(time=t, u=u, v=v))
            events.append(LinkUp(time=t + flap_downtime, u=u, v=v))

    for _ in range(loss_windows):
        t = float(generator.uniform(0.0, horizon))
        events.append(LossWindow(
            time=t, probability=loss_probability,
            duration=float(generator.uniform(1.0, max(2.0, horizon / 4))),
        ))
    for _ in range(duplication_windows):
        t = float(generator.uniform(0.0, horizon))
        events.append(DuplicationWindow(
            time=t, probability=duplication_probability,
            duration=float(generator.uniform(1.0, max(2.0, horizon / 4))),
        ))
    return FaultSchedule(events)


def apply_schedule(schedule: FaultSchedule,
                   injector: "FaultInjector") -> None:
    """Compile ``schedule`` to simulator events acting on ``injector``.

    Event times are relative to the simulator's *current* time, so a
    schedule applied after the control phases ran perturbs only the data
    plane.  All fault events carry an empty priority tuple and therefore
    fire before any same-time delivery; ties between fault events resolve
    in schedule order (the queue is insertion-stable).
    """
    schedule.validate_against(injector.network.graph)
    sim = injector.sim
    for event in schedule.events:
        if isinstance(event, NodeDown):
            sim.schedule(event.time,
                         lambda e=event: injector.crash(e.node))
        elif isinstance(event, NodeUp):
            sim.schedule(event.time,
                         lambda e=event: injector.recover(e.node))
        elif isinstance(event, LinkDown):
            sim.schedule(event.time,
                         lambda e=event: injector.cut_link(e.u, e.v))
        elif isinstance(event, LinkUp):
            sim.schedule(event.time,
                         lambda e=event: injector.restore_link(e.u, e.v))
        elif isinstance(event, Partition):
            def _partition(e: Partition = event) -> None:
                cut = injector.partition(e.nodes)
                if cut and not math.isinf(e.duration):
                    sim.schedule(
                        e.duration,
                        lambda edges=cut: injector.heal(edges),
                    )
            sim.schedule(event.time, _partition)
        elif isinstance(event, LossWindow):
            sim.schedule(event.time,
                         lambda e=event: injector.push_loss(e.probability))
            sim.schedule(event.time + event.duration,
                         lambda e=event: injector.pop_loss(e.probability))
        elif isinstance(event, DuplicationWindow):
            sim.schedule(
                event.time,
                lambda e=event: injector.push_duplication(e.probability))
            sim.schedule(
                event.time + event.duration,
                lambda e=event: injector.pop_duplication(e.probability))
        else:  # pragma: no cover - exhaustive over _KINDS
            raise ConfigurationError(f"unknown fault event {event!r}")
