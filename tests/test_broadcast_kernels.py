"""Equivalence properties for the array broadcast kernels.

The vectorised delivery kernels (:mod:`repro.broadcast.kernels`) are a
performance substrate, not a second model: on every input they must
reproduce the centralized reference algorithms exactly, and under loss
they must consume the *same RNG stream in the same order* as the event
engine, so a figure point computes identical numbers whichever route ran.
Three layers of evidence here:

* Hypothesis properties against the centralized references on arbitrary
  raw placements — disconnected graphs, isolated nodes, torus wrap and
  permuted non-contiguous ids included;
* engine replays at loss 0 / 0.2 / 1.0 with a shared seed, checking
  results *and* the generators' final positions (stream-consumption
  order is part of the contract);
* the batching seams: a union-stacked batch must equal per-trial runs,
  and a batch wave through the execution backend must equal per-item
  calls bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backbone.mo_cds import build_mo_cds
from repro.backbone.static_backbone import build_static_backbone
from repro.broadcast import kernels
from repro.broadcast.flooding import blind_flooding
from repro.broadcast.sd_cds import broadcast_sd
from repro.broadcast.si_cds import broadcast_si
from repro.cluster.lowest_id import lowest_id_clustering
from repro.exec.backends import SerialBackend
from repro.exec.scenarios import connected_scenario
from repro.exec.spec import TrialSpec, resolve_cached
from repro.geometry.area import Area
from repro.geometry.placement import uniform_placement
from repro.graph.build import unit_disk_graph
from repro.protocols.broadcast import (
    DistributedSDBroadcast,
    DistributedSIBroadcast,
)
from repro.protocols.clustering import DistributedLowestIdClustering
from repro.protocols.coverage import CoverageExchangeProtocol
from repro.protocols.hello import HelloProtocol
from repro.sim.network import SimNetwork
from repro.types import CoveragePolicy, PruningLevel


@st.composite
def placements(draw):
    """Raw placements: arbitrary density, optional torus and permuted ids.

    No connectivity rejection — sparse draws carry isolated nodes and
    multi-component graphs, which the kernels must handle exactly like
    the references (unreached nodes simply never appear in the result).
    """
    n = draw(st.integers(1, 55))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    side = draw(st.sampled_from([60.0, 120.0, 250.0]))
    radius = draw(st.sampled_from([15.0, 35.0, 70.0]))
    area = Area(side, side)
    positions = uniform_placement(n, area, rng=rng)
    torus = area if draw(st.booleans()) else None
    if draw(st.booleans()):
        ids = [int(v) for v in rng.permutation(10 * n)[:n]]
    else:
        ids = None
    source_pick = draw(st.integers(0, n - 1))
    return positions, radius, ids, torus, source_pick


def _assets_for(scenario):
    positions, radius, ids, torus, source_pick = scenario
    graph = unit_disk_graph(positions, radius, ids=ids, torus=torus)
    structure = lowest_id_clustering(graph)
    assets = kernels.KernelAssets(structure)
    source = sorted(graph.nodes())[source_pick]
    return graph, structure, assets, source


@settings(max_examples=50, deadline=None)
@given(placements())
def test_flooding_matches_reference(scenario):
    graph, _structure, assets, source = _assets_for(scenario)
    assert kernels.flooding_result(assets.csr, source) == blind_flooding(
        graph, source
    )


@settings(max_examples=40, deadline=None)
@given(placements())
def test_si_matches_reference_backbones(scenario):
    graph, structure, assets, source = _assets_for(scenario)
    for policy in CoveragePolicy:
        backbone = build_static_backbone(structure, policy=policy)
        got = kernels.si_result(
            assets.csr, assets.static_rows(policy), source,
            algorithm=f"si-cds[{backbone.algorithm}]",
        )
        assert got == broadcast_si(graph, backbone, source)
    mo = build_mo_cds(structure)
    got = kernels.si_result(
        assets.csr, assets.mo_rows(), source,
        algorithm=f"si-cds[{mo.algorithm}]",
    )
    assert got == broadcast_si(graph, mo, source)


@settings(max_examples=25, deadline=None)
@given(placements())
def test_sd_matches_reference_at_every_pruning_level(scenario):
    graph, structure, assets, source = _assets_for(scenario)
    for policy in CoveragePolicy:
        for pruning in PruningLevel:
            ref = broadcast_sd(
                structure, source, policy=policy, pruning=pruning
            )
            got = kernels.sd_result(
                assets, source, policy=policy, pruning=pruning
            )
            assert got.result == ref.result
            assert got.forward_sets == dict(ref.forward_sets)
            assert got.pruned_targets == dict(ref.pruned_targets)


# ---------------------------------------------------------------------------
# Kernel vs event engine under loss: same results, same RNG consumption.
# ---------------------------------------------------------------------------


def _engine_network(graph, policy, loss, rng):
    """A pre-clustered engine network, lossy only for the data phase."""
    net = SimNetwork(graph)
    hello = HelloProtocol(net)
    hello.start()
    net.run_phase()
    clustering = DistributedLowestIdClustering(net)
    clustering.start()
    net.run_phase()
    coverage = CoverageExchangeProtocol(net, policy)
    coverage.start()
    net.run_phase()
    if loss > 0:
        net.medium.set_loss(loss, rng)
    return net, coverage


def _normalised(times, source):
    # Engine reception times count from the control phases; kernel times
    # count from the broadcast start.  Source-relative offsets compare.
    origin = times[source]
    return {node: t - origin for node, t in times.items()}


@pytest.mark.parametrize("loss", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_kernels_match_event_engine(seed, loss):
    scenario = connected_scenario(60, 8.0, root=1234, index=seed)
    graph = scenario.network.graph
    structure = lowest_id_clustering(graph)
    assets = kernels.KernelAssets(structure)
    source = int(np.random.default_rng(seed).choice(sorted(graph.nodes())))
    for policy in CoveragePolicy:
        engine_rng = np.random.default_rng(seed * 7 + 1)
        kernel_rng = np.random.default_rng(seed * 7 + 1)
        net, _coverage = _engine_network(graph, policy, loss, engine_rng)
        backbone = build_static_backbone(structure, policy=policy)
        si = DistributedSIBroadcast(net, backbone.nodes)
        si.start(source)
        net.run_phase()
        ref = si.result()
        got = kernels.si_result(
            assets.csr, assets.static_rows(policy), source,
            loss=loss, rng=kernel_rng if loss > 0 else None,
        )
        assert got.received == ref.received
        assert got.forward_nodes == ref.forward_nodes
        assert got.transmissions == ref.transmissions
        assert _normalised(got.reception_time, source) == _normalised(
            dict(ref.reception_time), source
        )
        if loss > 0:
            # Both paths must leave their generator at the same position:
            # the kernels draw one Bernoulli per neighbour in the exact
            # delivery order the medium uses.
            assert engine_rng.random() == kernel_rng.random()

        for pruning in PruningLevel:
            engine_rng = np.random.default_rng(seed * 7 + 3)
            kernel_rng = np.random.default_rng(seed * 7 + 3)
            net, coverage = _engine_network(graph, policy, loss, engine_rng)
            sd = DistributedSDBroadcast(net, coverage, pruning)
            sd.start(source)
            net.run_phase()
            ref = sd.result()
            got = kernels.sd_result(
                assets, source, policy=policy, pruning=pruning,
                loss=loss, rng=kernel_rng if loss > 0 else None,
            )
            assert got.result.received == ref.received
            assert got.result.forward_nodes == ref.forward_nodes
            assert got.result.transmissions == ref.transmissions
            assert _normalised(
                got.result.reception_time, source
            ) == _normalised(dict(ref.reception_time), source)
            if loss > 0:
                assert engine_rng.random() == kernel_rng.random()


# ---------------------------------------------------------------------------
# Batching seams: union stacking and the backend batch wave.
# ---------------------------------------------------------------------------


class TestTrialStacking:
    B = 5

    @pytest.fixture(scope="class")
    def stacked(self):
        scenarios = [
            connected_scenario(100, 9.0, root=42, index=b)
            for b in range(self.B)
        ]
        assets = [kernels.scenario_assets(s) for s in scenarios]
        sources = [
            int(np.random.default_rng(b).choice(s.network.graph.nodes()))
            for b, s in enumerate(scenarios)
        ]
        stack = kernels.stack_trials(
            [a.csr for a in assets], [a.head_row for a in assets]
        )
        src_rows = np.array(
            [a.source_row(src) + stack.offsets[b]
             for b, (a, src) in enumerate(zip(assets, sources))],
            dtype=np.int64,
        )
        return stack, assets, sources, src_rows

    def test_flooding_blocks_equal_per_trial_runs(self, stacked):
        stack, assets, sources, src_rows = stacked
        time_u, fwd_u = kernels.flooding_rows(stack.csr, src_rows)
        for b, (a, src) in enumerate(zip(assets, sources)):
            lo, hi = stack.offsets[b], stack.offsets[b + 1]
            t1, f1 = kernels.flooding_rows(
                a.csr, np.array([a.source_row(src)])
            )
            assert np.array_equal(time_u[lo:hi], t1)
            assert np.array_equal(fwd_u[lo:hi], f1)

    def test_si_blocks_equal_per_trial_runs(self, stacked):
        stack, assets, sources, src_rows = stacked
        for policy in CoveragePolicy:
            mask = kernels.stack_mask(
                stack, [a.static_rows(policy) for a in assets]
            )
            time_u, fwd_u = kernels.si_rows(stack.csr, mask, src_rows)
            for b, (a, src) in enumerate(zip(assets, sources)):
                lo, hi = stack.offsets[b], stack.offsets[b + 1]
                single = np.zeros(a.csr.num_nodes, dtype=bool)
                single[a.static_rows(policy)] = True
                t1, f1 = kernels.si_rows(
                    a.csr, single, np.array([a.source_row(src)])
                )
                assert np.array_equal(time_u[lo:hi], t1)
                assert np.array_equal(fwd_u[lo:hi], f1)

    def test_sd_blocks_equal_per_trial_runs(self, stacked):
        stack, assets, sources, src_rows = stacked
        for policy in CoveragePolicy:
            cov = kernels.stack_coverage(
                stack, [a.coverage(policy) for a in assets]
            )
            for pruning in PruningLevel:
                union = kernels.sd_rows(
                    stack.csr, stack.head_row, cov, src_rows, pruning=pruning
                )
                for b, (a, src) in enumerate(zip(assets, sources)):
                    lo, hi = stack.offsets[b], stack.offsets[b + 1]
                    single = kernels.sd_rows(
                        a.csr, a.head_row, a.coverage(policy),
                        np.array([a.source_row(src)]), pruning=pruning,
                        cov_keys=a.coverage_keys(policy),
                    )
                    assert np.array_equal(union.time[lo:hi], single.time)
                    assert np.array_equal(
                        union.forwarded[lo:hi], single.forwarded
                    )
                    assert np.array_equal(union.tx_row[lo:hi], single.tx_row)

    def test_sd_collect_flag_only_drops_bookkeeping(self, stacked):
        stack, _assets, _sources, src_rows = stacked
        cov = kernels.stack_coverage(
            stack,
            [a.coverage(CoveragePolicy.TWO_FIVE_HOP) for a in _assets],
        )
        full = kernels.sd_rows(stack.csr, stack.head_row, cov, src_rows)
        lean = kernels.sd_rows(
            stack.csr, stack.head_row, cov, src_rows, collect=False
        )
        assert np.array_equal(full.time, lean.time)
        assert np.array_equal(full.forwarded, lean.forwarded)
        assert np.array_equal(full.tx_row, lean.tx_row)
        assert lean.done_heads.shape[0] == 0


@pytest.mark.parametrize("degree", [6.0, 18.0])
@pytest.mark.parametrize("metrics", ["fig6", "fig7", "fig8", "flooding"])
def test_batch_wave_is_bit_identical_to_per_item_calls(metrics, degree):
    # n=300 is past KERNEL_CUTOVER, so the resolved trial grows a
    # run_batch attribute and the serial backend routes the wave through
    # the stacked kernels; the results must be indistinguishable.  Every
    # metric with a batch route is covered, at the paper's sparsest and
    # densest degree.
    spec = TrialSpec.create(
        "repro.workload.experiments:make_figure_trial",
        metrics=metrics, n=300, degree=degree,
        width=float(Area.paper().width), height=float(Area.paper().height),
        scenario_root=4242,
    )
    trial = resolve_cached(spec)
    assert getattr(trial, "run_batch", None) is not None
    seeds = np.random.SeedSequence(7).spawn(6)
    wave = SerialBackend().run_wave(spec, 0, seeds)
    per_item = [
        trial(k, np.random.default_rng(seq))
        for k, seq in enumerate(seeds)
    ]
    assert wave == per_item
