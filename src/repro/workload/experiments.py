"""Figure drivers: regenerate the series behind the paper's Figures 6-8.

Each driver returns one :class:`~repro.metrics.series.SeriesTable` per fixed
average degree (the paper's (a)/(b) sub-figures).  All algorithms in a
figure share each trial's network sample and broadcast source (paired
design, see :mod:`repro.workload.trials`).

Series labels are stable strings the tests and EXPERIMENTS.md key on:

* Figure 6 — ``static[2.5-hop]``, ``static[3-hop]``, ``mo-cds``;
* Figure 7 — ``dynamic[2.5-hop]``, ``dynamic[3-hop]``, ``mo-cds``;
* Figure 8 — the static and dynamic labels together.

Network samples come from the cross-experiment scenario cache
(:mod:`repro.exec.scenarios`), keyed by ``(env.seed, d, n, trial index)``
alone — so every figure driver sees the *same* connected sample (and shares
its memoized clustering and static/MO_CDS backbone node sets) at the same
environment point, and only the figure's own randomness (the broadcast
source) comes from its trial stream.  A trial that needs coverage sets
builds both policies' sets in one walk per clusterhead.
Trials are described by picklable :class:`~repro.exec.spec.TrialSpec`\\ s, so
any driver runs on the ``process`` backend unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from repro.backbone.mo_cds import build_mo_cds
from repro.backbone.static_backbone import build_static_backbone
from repro.broadcast import kernels
from repro.broadcast.flooding import blind_flooding
from repro.broadcast.sd_cds import broadcast_sd
from repro.broadcast.si_cds import broadcast_si
from repro.coverage.entries import CoverageSet
from repro.coverage.policy import compute_all_coverage_pairs
from repro.errors import ConfigurationError
from repro.exec.backends import BackendLike
from repro.exec.journal import RunJournal
from repro.exec.scenarios import Scenario, connected_scenario
from repro.exec.spec import IndexedTrialFn, TrialSpec
from repro.metrics.series import ExperimentSeries, SeriesTable
from repro.rng import spawn
from repro.types import CoveragePolicy, NodeId, PruningLevel
from repro.workload.config import PaperEnvironment
from repro.workload.trials import paired_trials

#: Stable series labels.
STATIC_25 = "static[2.5-hop]"
STATIC_3 = "static[3-hop]"
DYNAMIC_25 = "dynamic[2.5-hop]"
DYNAMIC_3 = "dynamic[3-hop]"
MO_CDS = "mo-cds"
FLOODING = "flooding"

#: One trial's measurement given the cached scenario and the source.
SampleMetricsFn = Callable[[Scenario, NodeId], Mapping[str, float]]

#: Per-head coverage sets of both policies: ``(2.5-hop, 3-hop)``.
CoveragePair = Tuple[Dict[NodeId, CoverageSet], Dict[NodeId, CoverageSet]]

#: The source-independent backbones memoised per scenario, in memo order.
_STATIC_LABELS = (STATIC_25, STATIC_3, MO_CDS)


#: Registry of figure metric functions, addressable by name so a
#: :class:`TrialSpec` can reference them across process boundaries.
_METRICS: Dict[str, SampleMetricsFn] = {}

#: Batched counterparts: ``name -> fn(scenarios, sources) -> [metrics...]``.
#: A batched implementation MUST return exactly what the per-trial metric
#: function returns for each (scenario, source) — the figure estimates are
#: exact integer counts, so "equal" means bit-identical.
_BATCH_METRICS: Dict[str, Callable] = {}


def _register_metrics(name: str, fn: SampleMetricsFn) -> SampleMetricsFn:
    _METRICS[name] = fn
    return fn


def make_figure_trial(
    *,
    metrics: str,
    n: int,
    degree: float,
    width: float,
    height: float,
    scenario_root: int,
) -> IndexedTrialFn:
    """Trial-spec factory for the figure drivers (resolved worker-side).

    The trial's network (and clustering) come from the scenario cache keyed
    by ``(scenario_root, n, degree, area, index)`` — shared across figures;
    the broadcast source is the only draw from the trial's own stream.
    """
    metrics_fn = _METRICS.get(metrics)
    if metrics_fn is None:
        raise ConfigurationError(
            f"unknown figure metrics {metrics!r}; expected one of "
            f"{sorted(_METRICS)}"
        )
    from repro.geometry.area import Area

    area = Area(width, height)

    def trial(index: int, gen: np.random.Generator) -> Mapping[str, float]:
        scenario = connected_scenario(
            n, degree, area=area, root=scenario_root, index=index
        )
        source = int(gen.choice(scenario.network.graph.nodes()))
        return metrics_fn(scenario, source)

    batch_fn = _BATCH_METRICS.get(metrics)
    if batch_fn is not None and n >= kernels.KERNEL_CUTOVER:
        # Above the cutover the whole wave runs through the array kernels
        # (one stacked broadcast per algorithm instead of one event loop
        # per trial).  Per-item source draws consume each trial's stream
        # exactly as the scalar path does, and the kernels are bit-exact,
        # so which route ran is unobservable in the results.
        def run_batch(items):
            scenarios = [
                connected_scenario(
                    n, degree, area=area, root=scenario_root, index=index
                )
                for index, _ in items
            ]
            sources = [
                int(gen.choice(scenario.network.graph.nodes()))
                for (_, gen), scenario in zip(items, scenarios)
            ]
            return batch_fn(scenarios, sources)

        trial.run_batch = run_batch

    return trial


def _run_figure(
    env: PaperEnvironment,
    title_fmt: str,
    metrics_name: str,
    figure_seed_offset: int,
    *,
    backend: BackendLike = None,
    parallel: int = 1,
    journal: Optional[RunJournal] = None,
) -> Dict[float, SeriesTable]:
    """Shared sweep driver: for each (d, n) run paired trials to convergence."""
    tables: Dict[float, SeriesTable] = {}
    # Derive one independent stream per (figure, degree, n) point so any
    # point is reproducible in isolation.  Network samples do NOT come from
    # these streams — they are keyed by (env.seed, d, n, trial index) in the
    # scenario cache, figure-independent — only the per-trial source draw
    # does.
    point_streams = spawn(
        env.seed + figure_seed_offset, len(env.degrees) * len(env.ns)
    )
    stream_iter = iter(point_streams)
    for d in env.degrees:
        table = SeriesTable(title=title_fmt.format(d=d), x_label="n")
        series: Dict[str, ExperimentSeries] = {}
        for n in env.ns:
            stream = next(stream_iter)
            spec = TrialSpec.create(
                "repro.workload.experiments:make_figure_trial",
                metrics=metrics_name,
                n=int(n),
                degree=float(d),
                width=float(env.area.width),
                height=float(env.area.height),
                scenario_root=int(env.seed),
            )
            point = (journal.point(f"{metrics_name}:d={d:g}:n={n}")
                     if journal is not None else None)
            outcome = paired_trials(
                spec=spec,
                confidence=env.confidence,
                target=env.target,
                min_samples=env.min_samples,
                max_samples=env.max_samples,
                rng=stream,
                backend=backend,
                parallel=parallel,
                journal=point,
            )
            for label, ci in outcome.estimates.items():
                if label not in series:
                    series[label] = ExperimentSeries(label=label)
                    table.add_series(series[label])
                series[label].add(float(n), ci)
        tables[d] = table
    return tables


def _backbone_nodes(
    scenario: Scenario, coverage: Optional[CoveragePair] = None
) -> Tuple[FrozenSet[NodeId], ...]:
    """The scenario's node sets of :data:`_STATIC_LABELS`, memoised on it.

    ``coverage`` is the trial's :func:`compute_all_coverage_pairs` result,
    when it has one.  A benign race mirrors ``Scenario.clustering``.
    """
    nodes = scenario._backbone_nodes
    if nodes is None:
        cs = scenario.clustering
        cov25, cov3 = coverage or compute_all_coverage_pairs(cs)
        nodes = (
            build_static_backbone(cs, CoveragePolicy.TWO_FIVE_HOP, cov25).nodes,
            build_static_backbone(cs, CoveragePolicy.THREE_HOP, cov3).nodes,
            build_mo_cds(cs, cov3).nodes,
        )
        scenario._backbone_nodes = nodes
    return nodes


def _forward_counts(scenario: Scenario, source: NodeId,
                    labels: Tuple[str, ...]) -> Dict[str, float]:
    """Forward-node counts of the labelled broadcasts from ``source``: SD
    over both policies' coverage (one walk), SI over the memoised sets."""
    cs = scenario.clustering
    coverage = compute_all_coverage_pairs(cs)
    static = dict(zip(_STATIC_LABELS, _backbone_nodes(scenario, coverage)))
    dynamic = {DYNAMIC_25: (CoveragePolicy.TWO_FIVE_HOP, coverage[0]),
               DYNAMIC_3: (CoveragePolicy.THREE_HOP, coverage[1])}
    out: Dict[str, float] = {}
    for label in labels:
        if label in static:
            result = broadcast_si(cs.topology, static[label], source)
        else:
            policy, sets = dynamic[label]
            result = broadcast_sd(cs, source, policy=policy, coverage_sets=sets,
                                  pruning=PruningLevel.FULL).result
        out[label] = float(result.num_forward_nodes)
    return out


def _fig6_metrics(scenario: Scenario, source: NodeId) -> Mapping[str, float]:
    """Average CDS sizes (source unused: the CDSs are source-independent)."""
    del source
    return {
        label: float(len(nodes))
        for label, nodes in zip(_STATIC_LABELS, _backbone_nodes(scenario))
    }


_register_metrics("fig6", _fig6_metrics)


def run_fig6(
    env: PaperEnvironment = PaperEnvironment(),
    *,
    backend: BackendLike = None,
    parallel: int = 1,
    journal: Optional[RunJournal] = None,
) -> Dict[float, SeriesTable]:
    """Figure 6: average size of the CDS — static backbone vs MO_CDS.

    Returns:
        Mapping average degree -> series table (sub-figures (a) and (b)).
    """
    return _run_figure(
        env, "Figure 6 (d={d:g}): average CDS size", "fig6", 600,
        backend=backend, parallel=parallel, journal=journal,
    )


def _fig7_metrics(scenario: Scenario, source: NodeId) -> Mapping[str, float]:
    """Forward-node-set sizes: dynamic backbone vs broadcasting on MO_CDS."""
    return _forward_counts(scenario, source, (DYNAMIC_25, DYNAMIC_3, MO_CDS))


_register_metrics("fig7", _fig7_metrics)


def run_fig7(
    env: PaperEnvironment = PaperEnvironment(),
    *,
    backend: BackendLike = None,
    parallel: int = 1,
    journal: Optional[RunJournal] = None,
) -> Dict[float, SeriesTable]:
    """Figure 7: average forward-node-set size — dynamic backbone vs MO_CDS."""
    return _run_figure(
        env, "Figure 7 (d={d:g}): average forward-node-set size", "fig7", 700,
        backend=backend, parallel=parallel, journal=journal,
    )


def _fig8_metrics(scenario: Scenario, source: NodeId) -> Mapping[str, float]:
    """Forward-node-set sizes: static vs dynamic backbones, both policies."""
    return _forward_counts(
        scenario, source, (STATIC_25, STATIC_3, DYNAMIC_25, DYNAMIC_3)
    )


_register_metrics("fig8", _fig8_metrics)


def run_fig8(
    env: PaperEnvironment = PaperEnvironment(),
    *,
    backend: BackendLike = None,
    parallel: int = 1,
    journal: Optional[RunJournal] = None,
) -> Dict[float, SeriesTable]:
    """Figure 8: forward-node-set size — static vs dynamic backbones."""
    return _run_figure(
        env, "Figure 8 (d={d:g}): static vs dynamic forward-node-set size",
        "fig8", 800, backend=backend, parallel=parallel, journal=journal,
    )


def _flooding_metrics(scenario: Scenario,
                      source: NodeId) -> Mapping[str, float]:
    """Extension: blind flooding vs the paper's schemes (broadcast storm)."""
    flood = blind_flooding(scenario.network.graph, source)
    return {
        FLOODING: float(flood.num_forward_nodes),
        **_forward_counts(scenario, source, (STATIC_25, DYNAMIC_25)),
    }


_register_metrics("flooding", _flooding_metrics)


def run_flooding_comparison(
    env: PaperEnvironment = PaperEnvironment(),
    *,
    backend: BackendLike = None,
    parallel: int = 1,
    journal: Optional[RunJournal] = None,
) -> Dict[float, SeriesTable]:
    """Ablation: how much redundancy the backbones remove vs blind flooding."""
    return _run_figure(
        env, "Ablation (d={d:g}): flooding vs backbones", "flooding", 900,
        backend=backend, parallel=parallel, journal=journal,
    )

# ---------------------------------------------------------------------------
# Batched figure metrics (array kernels)
# ---------------------------------------------------------------------------
#
# Above ``kernels.KERNEL_CUTOVER`` nodes, :func:`make_figure_trial` exposes a
# ``run_batch`` seam (see repro.exec.backends._run_spec_chunk): the wave's
# scenarios stack into one block-diagonal CSR and each figure algorithm runs
# as a single stacked broadcast.  The figure metrics are exact integer counts
# and the kernels are bit-equivalent to the reference implementations, so
# estimates are identical either way — pinned by tests/test_broadcast_kernels.


def _stack_for(assets, sources):
    stack = kernels.stack_trials(
        [a.csr for a in assets], [a.head_row for a in assets]
    )
    src_rows = np.asarray(
        [
            a.source_row(source) + stack.offsets[b]
            for b, (a, source) in enumerate(zip(assets, sources))
        ],
        dtype=np.int64,
    )
    return stack, src_rows


def _stacked_si_counts(stack, src_rows, assets, rows_of) -> np.ndarray:
    mask = kernels.stack_mask(stack, [rows_of(a) for a in assets])
    _, forwarded = kernels.si_rows(stack.csr, mask, src_rows)
    return stack.per_trial_counts(forwarded)


def _stacked_sd_counts(stack, src_rows, assets, policy) -> np.ndarray:
    cov = kernels.stack_coverage(stack, [a.coverage(policy) for a in assets])
    run = kernels.sd_rows(
        stack.csr, stack.head_row, cov, src_rows,
        pruning=PruningLevel.FULL, collect=False,
    )
    return stack.per_trial_counts(run.forwarded)


def _as_rows(values: Mapping[str, np.ndarray], count: int):
    return [
        {label: float(series[b]) for label, series in values.items()}
        for b in range(count)
    ]


def _fig6_batch(scenarios, sources):
    del sources  # the CDSs are source-independent
    out = []
    for scenario in scenarios:
        assets = kernels.scenario_assets(scenario)
        out.append({
            STATIC_25: float(
                assets.static_rows(CoveragePolicy.TWO_FIVE_HOP).shape[0]
            ),
            STATIC_3: float(
                assets.static_rows(CoveragePolicy.THREE_HOP).shape[0]
            ),
            MO_CDS: float(assets.mo_rows().shape[0]),
        })
    return out


_BATCH_METRICS["fig6"] = _fig6_batch


def _fig7_batch(scenarios, sources):
    assets = [kernels.scenario_assets(s) for s in scenarios]
    stack, src_rows = _stack_for(assets, sources)
    values = {
        DYNAMIC_25: _stacked_sd_counts(
            stack, src_rows, assets, CoveragePolicy.TWO_FIVE_HOP
        ),
        DYNAMIC_3: _stacked_sd_counts(
            stack, src_rows, assets, CoveragePolicy.THREE_HOP
        ),
        MO_CDS: _stacked_si_counts(
            stack, src_rows, assets, lambda a: a.mo_rows()
        ),
    }
    return _as_rows(values, len(scenarios))


_BATCH_METRICS["fig7"] = _fig7_batch


def _fig8_batch(scenarios, sources):
    assets = [kernels.scenario_assets(s) for s in scenarios]
    stack, src_rows = _stack_for(assets, sources)
    values = {
        STATIC_25: _stacked_si_counts(
            stack, src_rows, assets,
            lambda a: a.static_rows(CoveragePolicy.TWO_FIVE_HOP),
        ),
        STATIC_3: _stacked_si_counts(
            stack, src_rows, assets,
            lambda a: a.static_rows(CoveragePolicy.THREE_HOP),
        ),
        DYNAMIC_25: _stacked_sd_counts(
            stack, src_rows, assets, CoveragePolicy.TWO_FIVE_HOP
        ),
        DYNAMIC_3: _stacked_sd_counts(
            stack, src_rows, assets, CoveragePolicy.THREE_HOP
        ),
    }
    return _as_rows(values, len(scenarios))


_BATCH_METRICS["fig8"] = _fig8_batch


def _flooding_batch(scenarios, sources):
    assets = [kernels.scenario_assets(s) for s in scenarios]
    stack, src_rows = _stack_for(assets, sources)
    _, flooded = kernels.flooding_rows(stack.csr, src_rows)
    values = {
        FLOODING: stack.per_trial_counts(flooded),
        STATIC_25: _stacked_si_counts(
            stack, src_rows, assets,
            lambda a: a.static_rows(CoveragePolicy.TWO_FIVE_HOP),
        ),
        DYNAMIC_25: _stacked_sd_counts(
            stack, src_rows, assets, CoveragePolicy.TWO_FIVE_HOP
        ),
    }
    return _as_rows(values, len(scenarios))


_BATCH_METRICS["flooding"] = _flooding_batch
