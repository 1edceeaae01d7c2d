"""``metro-n100k``: array-native pipeline builds beside mobility ticks.

Set-up draws the n=100k, d=12 placement, builds one persistent
``KernelMobilitySession`` from it and runs one warm-up tick.  Each op is
one ``run_scaling_study(ns=(100000,))`` (construction, clustering,
coverage, selection, SD broadcast kernel — a read of the placement)
followed by ``TICKS_PER_OP`` ticks of the session (writes that splice the
CSR and repair the dirty ball).  Both share the masked coverage and
selection kernels, so a change that helps one and hurts the other shows.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import (
    SETUPS, Context, Outcome, Phase, SpeedSampler, import_seconds, median,
    overhead_pct, p90, peak_rss_mib, phase_seconds, rate, run_phase, timed,
    zero_layers,
)

from repro import perf
from repro.exec.scenarios import scenario_positions
from repro.geometry.area import Area
from repro.geometry.disk import range_for_target_degree
from repro.geometry.mobility import RandomWaypoint
from repro.maintenance.kernels import KernelMobilitySession
from repro.rng import derive_seed, ensure_rng
from repro.workload.scaling import run_scaling_study

DEGREE = 12.0
SPEED_FRACTION = 0.05
TICKS_PER_OP = 2

#: Per-tick report fields that are exact counts.
TICK_COUNTS = ("link_changes", "reevaluated", "flipped", "heads_gained",
               "heads_lost", "reassigned", "dirty_heads", "gateways_gained",
               "gateways_lost", "resignalling")

IMPORTS = ["repro.workload.scaling", "repro.maintenance.kernels",
           "repro.geometry.mobility"]

REFERENCE = Path(__file__).resolve().parent / "reference.json"


class Metro:
    """The fixed-density geometry of one seed (mirrors the scaling study)."""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n = 2_000 if tiny else 100_000
        side = 100.0 * (self.n / 100.0) ** 0.5
        self.area = Area(side, side)
        self.radius = range_for_target_degree(self.n, DEGREE, self.area)
        # The root run_scaling_study derives from rng=seed, so the session
        # and every build share one placement.
        self.root = derive_seed(ensure_rng(seed))

    def positions(self) -> np.ndarray:
        return scenario_positions(self.n, self.area, root=self.root)

    def mobility(self) -> RandomWaypoint:
        speed = SPEED_FRACTION * self.radius
        return RandomWaypoint(
            speed_range=(0.5 * speed, 1.5 * speed), pause_time=0.0,
            area=self.area,
            rng=np.random.default_rng([self.seed, 0x6D6F62]),
        )

    def session(self) -> KernelMobilitySession:
        """A fresh session plus its warm-up tick."""
        session = KernelMobilitySession(self.positions(), self.radius,
                                        self.mobility(), area=self.area)
        session.step(1.0)
        return session


def head_count(session: KernelMobilitySession) -> int:
    rows = session.head_row
    return int(np.count_nonzero(rows == np.arange(rows.shape[0])))


def static_counts(point, metro: Metro) -> Dict[str, object]:
    """What one build produced, as exact numbers."""
    return {
        "n": point.n,
        "component_n": point.component_n,
        "backbone_fraction": point.backbone_fraction,
        "dynamic_fraction": point.dynamic_fraction,
        "cds_size": int(round(point.backbone_fraction * point.component_n)),
        "forward_nodes": int(round(point.dynamic_fraction
                                   * point.component_n)),
    }


def check_rebuild(metro: Metro, session: KernelMobilitySession,
                  outcome: Outcome) -> None:
    """The repaired state must equal a session built from scratch on the
    current positions (heads and gateways, row for row)."""
    fresh = KernelMobilitySession(session.positions, metro.radius,
                                  metro.mobility(), area=metro.area)
    outcome.check(np.array_equal(fresh.head_row, session.head_row),
                  "repaired head assignment differs from a rebuild")
    outcome.check(np.array_equal(fresh.gateway_rows, session.gateway_rows),
                  "repaired gateway set differs from a rebuild")


def run(ctx: Context, spec: dict) -> Outcome:
    """One metro-n100k run (see the module docstring)."""
    outcome = Outcome()
    metro = Metro(ctx.seed, ctx.tiny)

    placement_s, _ = timed(metro.positions)
    setups: List[float] = []
    with SpeedSampler() as sampler:
        for _ in range(SETUPS):
            session = None  # one live session at a time, as in real use
            seconds, session = sampler.timed(metro.session)
            setups.append(seconds)
    setup_factor = sampler.factor()
    setup_heads = head_count(session)
    setup_edges = session.csr.num_edges

    def op(traced: bool = False):
        ticks = []
        with SpeedSampler(periodic=not traced) as sampler:
            build_s, points = sampler.timed(lambda: run_scaling_study(
                ns=(metro.n,), average_degree=DEGREE, rng=metro.seed))
            for _ in range(TICKS_PER_OP):
                tick_s, report = sampler.timed(lambda: session.step(1.0))
                ticks.append((tick_s, report, head_count(session)))
        raw = build_s + sum(t[0] for t in ticks)
        return raw, raw * sampler.factor(), (build_s, points[0], ticks)

    # The first build in a process is the slowest; the set-up already
    # warmed the ticks.
    warmup_s, _ = timed(lambda: run_scaling_study(
        ns=(metro.n,), average_degree=DEGREE, rng=metro.seed))
    untraced = run_phase(op, phase_seconds(ctx))
    traced = Phase()
    if ctx.trace:
        perf.reset()
        perf.enable()
        try:
            traced = run_phase(lambda: op(traced=True),
                               phase_seconds(ctx))
        finally:
            perf.enable(False)
    payloads = untraced.payloads + traced.payloads
    times = untraced.scaled
    outcome.attempted = len(payloads)

    # -- checks, all outside the timed ops ---------------------------------
    first_static = static_counts(payloads[0][1], metro)
    for i, (_, point, _) in enumerate(payloads):
        got = static_counts(point, metro)
        outcome.failed += not outcome.check(
            got == first_static, f"build {i} differs from build 0: {got}")
    outcome.check(0 < first_static["component_n"] <= metro.n
                  and 0 < first_static["backbone_fraction"] <= 1
                  and 0 < first_static["dynamic_fraction"] <= 1,
                  f"implausible build {first_static}")
    check_rebuild(metro, session, outcome)
    outcome.counts = {
        **first_static,
        "setup_heads": setup_heads,
        "setup_edges": setup_edges,
        "ticks": [{k: getattr(report, k) for k in TICK_COUNTS}
                  for (_, report, _) in payloads[0][2]],
        "tick_heads": [h for (_, _, h) in payloads[0][2]],
    }
    if ctx.seed == 0:
        scale = "tiny" if ctx.tiny else "full"
        expected = json.loads(REFERENCE.read_text())["metro-n100k"][scale]
        if ctx.plant_wrong_oracle:
            expected["component_n"] += 1
        outcome.check(json.loads(json.dumps(outcome.counts)) == expected,
                      "builds and first ticks differ from the reference")
    outcome.detail = {
        "warmup_s": warmup_s,
        "setup_samples": setups,
        "op_seconds": untraced.raw,
        "scaled_op_seconds": times,
        "traced_op_seconds": traced.raw,
    }

    if ctx.trace:
        outcome.metrics = _layers(spec, payloads[0], traced.payloads,
                                  placement_s, setup_heads, setup_edges,
                                  first_static)
        outcome.metrics["trace.overhead_pct"] = overhead_pct(times,
                                                             traced.scaled)
        outcome.metrics["workload.warmup_s"] = warmup_s
    else:
        outcome.metrics = {
            "setup_s": (import_seconds(IMPORTS)
                        + median(setups) * setup_factor),
            "peak_rss_mib": peak_rss_mib(),
            "p50_ms": median(times) * 1e3,
            "p90_ms": p90(times) * 1e3,
            "ops_per_s": rate(len(times), sum(times)),
        }
    return outcome


def _layers(spec: dict, first, traced, placement_s: float, heads: int,
            edges: int, static: dict) -> Dict[str, float]:
    """Layer times are medians over the traced ops; counts come from the
    first op, whose ticks are the same ones in every run of a seed."""
    points = [p for (_, p, _) in traced]
    ticks = [t for (_, _, tks) in traced for t in tks]

    def med(values) -> float:
        return median(list(values))

    first_ticks = first[2]
    dirty = sum(r.dirty_heads for (_, r, _) in first_ticks)
    layers = zero_layers(spec)
    layers.update({
        "geometry.placement_s": placement_s,
        "graph.construction_s": med(p.build_seconds for p in points),
        "graph.edges": edges,
        "cluster.clustering_s": med(p.cluster_seconds for p in points),
        "cluster.heads": heads,
        "coverage.coverage_s": med(p.coverage_seconds for p in points),
        "backbone.selection_s": med(p.backbone_seconds for p in points),
        "backbone.cds_size": static["cds_size"],
        "broadcast.kernel_s": med(p.broadcast_seconds for p in points),
        "broadcast.forward_nodes": static["forward_nodes"],
        "maintenance.tick_ms": med(t for (t, _, _) in ticks) * 1e3,
        "maintenance.step_ms": med(r.step_seconds for (_, r, _) in ticks)
        * 1e3,
        "maintenance.delta_ms": med(r.delta_seconds for (_, r, _) in ticks)
        * 1e3,
        "maintenance.repair_ms": med(r.repair_seconds for (_, r, _) in ticks)
        * 1e3,
        "maintenance.link_changes": sum(r.link_changes
                                        for (_, r, _) in first_ticks),
        "maintenance.dirty_heads": dirty,
        "maintenance.dirty_ratio": dirty / sum(h for (_, _, h) in first_ticks),
        "workload.self_s": med(
            b - p.total_seconds - p.broadcast_seconds
            for (b, p, _) in traced),
    })
    return layers
