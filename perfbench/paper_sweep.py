"""``paper-sweep``: the paper's own figure sweep, cold, as a reproducer pays.

One op is ``run_fig6`` + ``run_fig7`` + ``run_fig8`` at
``PaperEnvironment.paper()`` fidelity on the default serial backend,
starting from a cleared scenario cache.  Every trial has n <= 100, below
every CSR-kernel cutover, so the object layer, the event engine, the
scenario cache and the adaptive ``paired_trials`` loop do the work.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from common import (
    Context, Outcome, Phase, SpeedSampler, digest, import_seconds, median,
    overhead_pct, p90, peak_rss_mib, phase_seconds, rate, run_phase,
    zero_layers,
)

from repro import perf
from repro.backbone.static_backbone import build_static_backbone
from repro.backbone.verify import verify_backbone
from repro.broadcast.sd_cds import broadcast_sd
from repro.errors import BackboneError
from repro.exec.scenarios import connected_scenario, get_scenario_cache
from repro.types import CoveragePolicy
from repro.workload.config import PaperEnvironment
from repro.workload.experiments import (
    DYNAMIC_25, STATIC_25, run_fig6, run_fig7, run_fig8,
)

FIGURES = (("fig6", run_fig6), ("fig7", run_fig7), ("fig8", run_fig8))

#: Modules a reproducer imports before the first figure can start.
IMPORTS = ["repro.workload.experiments", "repro.workload.config",
           "repro.exec.scenarios"]

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def environment(seed: int, tiny: bool) -> PaperEnvironment:
    """The sweep environment of ``seed`` (seed 0 is the paper's own)."""
    env = PaperEnvironment.paper()
    env = env.scaled(seed=env.seed + seed)
    if tiny:
        env = env.scaled(ns=(20, 40), degrees=(6.0,), min_samples=6,
                         max_samples=6, target=0.5)
    return env


def warmup_environment(env: PaperEnvironment) -> PaperEnvironment:
    """A fixed-count sweep over the same points: every code path, six
    trials per point."""
    return env.scaled(min_samples=6, max_samples=6, target=0.5)


def sweep(env: PaperEnvironment, traced: bool = False) -> Dict[str, object]:
    """One cold three-figure sweep: wall and scaled seconds, the tables
    and the cache stats (the cache clear and the speed samples are not
    timed)."""
    cache = get_scenario_cache()
    cache.clear()
    with SpeedSampler(periodic=not traced) as sampler:
        seconds, tables = sampler.timed(
            lambda: {name: fn(env) for name, fn in FIGURES})
    return {"seconds": seconds, "scaled": seconds * sampler.factor(),
            "tables": tables, "cache": cache.stats()}


def records(tables) -> Dict[str, object]:
    """The sweep as JSON-ready records, keyed figure -> degree."""
    return {name: {f"{d:g}": t.to_records() for d, t in sorted(per.items())}
            for name, per in tables.items()}


def _samples(tables, figure: str) -> Dict[tuple, int]:
    """Trials folded per (degree, n) point of one figure."""
    out = {}
    for d, table in tables[figure].items():
        for point in table.series[0].points:
            out[(d, int(point.x))] = point.estimate.samples
    return out


def _series_total(tables, figure: str, label: str) -> int:
    """Sum over every trial of one series' integer per-trial value."""
    total = 0.0
    for table in tables[figure].values():
        for series in table.series:
            if series.label == label:
                total += sum(p.estimate.mean * p.estimate.samples
                             for p in series.points)
    return int(round(total))


def exact_counts(env: PaperEnvironment, result: Dict[str, object]) -> dict:
    """Work counters of one sweep; every one is a function of the seed.

    Heads and edges are summed over the distinct scenarios the sweep drew,
    read back from the still-populated scenario cache after the op.
    """
    tables = result["tables"]
    trials = sum(sum(_samples(tables, name).values()) for name, _ in FIGURES)
    drawn: Dict[tuple, int] = {}
    for name, _ in FIGURES:
        for key, count in _samples(tables, name).items():
            drawn[key] = max(drawn.get(key, 0), count)
    heads = edges = 0
    for (d, n), count in sorted(drawn.items()):
        for index in range(count):
            scenario = connected_scenario(n, d, area=env.area,
                                          root=env.seed, index=index)
            heads += len(scenario.clustering.clusterheads)
            edges += scenario.network.graph.num_edges
    return {
        "trials": trials,
        "scenario_hits": result["cache"]["hits"],
        "scenario_misses": result["cache"]["misses"],
        "heads": heads,
        "edges": edges,
        "cds_size": _series_total(tables, "fig6", STATIC_25),
        "forward_nodes": _series_total(tables, "fig7", DYNAMIC_25),
    }


def check_invariants(env: PaperEnvironment, outcome: Outcome) -> None:
    """The paper's guarantees on the first sample of every point: SD
    reaches every node and both static backbones verify as CDSs."""
    for d in env.degrees:
        for n in env.ns:
            scenario = connected_scenario(n, d, area=env.area,
                                          root=env.seed, index=0)
            clustering = scenario.clustering
            source = min(scenario.network.graph.nodes())
            for policy in (CoveragePolicy.TWO_FIVE_HOP,
                           CoveragePolicy.THREE_HOP):
                sd = broadcast_sd(clustering, source, policy=policy)
                outcome.check(
                    len(sd.result.received) == n,
                    f"SD[{policy.label}] delivered {len(sd.result.received)}"
                    f"/{n} at d={d:g} n={n}",
                )
                try:
                    verify_backbone(build_static_backbone(clustering, policy))
                except BackboneError as exc:
                    outcome.check(False, f"static[{policy.label}] at "
                                         f"d={d:g} n={n}: {exc}")


def _layers(spec: dict, snap: dict, counts: dict,
            traced_times: List[float]) -> Dict[str, float]:
    """Per-op layer times from the traced ops' stage counters."""
    ops = len(traced_times)

    def sec(stage: str) -> float:
        return float(snap.get(stage, {}).get("seconds", 0.0)) / ops

    layers = zero_layers(spec)
    kernel = sum(sec(s) for s in ("broadcast.sd", "broadcast.si",
                                  "broadcast.flooding"))
    attributed = sum(float(s["seconds"]) for s in snap.values()) / ops
    lookups = counts["scenario_hits"] + counts["scenario_misses"]
    layers.update({
        "geometry.placement_s": sec("placement"),
        "graph.construction_s": sec("construction"),
        "graph.edges": counts["edges"],
        "cluster.clustering_s": sec("clustering"),
        "cluster.heads": counts["heads"],
        "coverage.coverage_s": sec("coverage"),
        "backbone.selection_s": sec("selection"),
        "backbone.cds_size": counts["cds_size"],
        "broadcast.engine_s": sec("broadcast"),
        "broadcast.kernel_s": kernel,
        "broadcast.forward_nodes": counts["forward_nodes"],
        "exec.scenario_hits": counts["scenario_hits"],
        "exec.scenario_misses": counts["scenario_misses"],
        "exec.hit_ratio": counts["scenario_hits"] / lookups,
        "workload.trials": counts["trials"],
        "workload.self_s": sum(traced_times) / ops - attributed,
    })
    return layers


def reference_digest(ctx: Context):
    """The recorded sweep digest for seed 0 at this scale (else ``None``)."""
    if ctx.seed != 0:
        return None
    scale = "tiny" if ctx.tiny else "full"
    expected = json.loads(REFERENCE.read_text())["paper-sweep"][scale]
    if ctx.plant_wrong_oracle:
        expected = expected[::-1]
    return expected


def run(ctx: Context, spec: dict) -> Outcome:
    """One paper-sweep run (see the module docstring)."""
    outcome = Outcome()
    env = environment(ctx.seed, ctx.tiny)
    warmup_s = sweep(warmup_environment(env))["seconds"]

    def op(traced: bool = False):
        result = sweep(env, traced)
        return result["seconds"], result["scaled"], result

    untraced = run_phase(op, phase_seconds(ctx))
    traced = Phase()
    snap: dict = {}
    if ctx.trace:
        perf.reset()
        perf.enable()
        try:
            traced = run_phase(lambda: op(traced=True),
                               phase_seconds(ctx))
            snap = perf.snapshot()
        finally:
            perf.enable(False)
    results = untraced.payloads + traced.payloads
    times = untraced.scaled
    outcome.attempted = len(results)

    # -- checks, all outside the timed ops ---------------------------------
    expected = reference_digest(ctx)
    first = digest(records(results[0]["tables"]))
    for i, result in enumerate(results):
        got = digest(records(result["tables"]))
        ok = outcome.check(got == first, f"op {i} digest differs from op 0")
        if expected is not None:
            ok = outcome.check(got == expected,
                               f"op {i} digest {got} != reference "
                               f"{expected}") and ok
        outcome.failed += not ok
    counts = exact_counts(env, results[-1])
    check_invariants(env, outcome)
    outcome.counts = counts

    outcome.detail = {
        "warmup_s": warmup_s,
        "digest": first,
        "op_seconds": untraced.raw,
        "scaled_op_seconds": times,
        "traced_op_seconds": traced.raw,
    }
    if ctx.trace:
        outcome.metrics = _layers(spec, snap, counts, traced.raw)
        outcome.metrics["trace.overhead_pct"] = overhead_pct(times,
                                                             traced.scaled)
        outcome.metrics["workload.warmup_s"] = warmup_s
    else:
        outcome.metrics = {
            "setup_s": import_seconds(IMPORTS),
            "peak_rss_mib": peak_rss_mib(),
            "p50_ms": median(times) * 1e3,
            "p90_ms": p90(times) * 1e3,
            "ops_per_s": rate(len(times), sum(times)),
        }
    return outcome
