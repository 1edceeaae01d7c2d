"""Property tests: the CSR array pipeline is bit-identical to the dict one.

Every array kernel of the hot path — unit-disk construction, lowest-ID
clustering, both coverage policies and gateway selection — must produce
*exactly* the same result as the reference dict/set implementation, on
arbitrary raw placements: connected or not (isolated nodes included; no
connectivity rejection here), borderless torus wrap, and permuted
non-contiguous node ids.  This is the contract that lets
``compute_all_coverage_sets`` and ``build_static_backbone`` dispatch to the
array path purely on size.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backbone.gateway_selection import (
    select_gateways,
    select_gateways_batch,
)
from repro.cluster.lowest_id import lowest_id_clustering, lowest_id_rows
from repro.coverage.three_hop import three_hop_arrays, three_hop_coverage
from repro.coverage.two_five_hop import (
    two_five_hop_arrays,
    two_five_hop_coverage,
)
from repro.geometry.area import Area
from repro.geometry.placement import uniform_placement
from repro.graph.build import unit_disk_csr, unit_disk_graph
from repro.graph.csr import CSRGraph
from repro.types import CoveragePolicy

from coverage_oracle import ch_hop_walk


@st.composite
def placements(draw):
    """Raw placement scenarios: positions, radius, optional torus and ids.

    Placements are *not* rejected for connectivity, so sparse draws carry
    isolated nodes and multi-component graphs; dense draws approach
    cliques.  Ids are sometimes a non-contiguous permutation, so row order
    and id order genuinely differ.
    """
    n = draw(st.integers(1, 60))
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
    return positions, radius, ids, torus


def _both_graphs(scenario):
    positions, radius, ids, torus = scenario
    graph = unit_disk_graph(positions, radius, ids=ids, torus=torus)
    csr = unit_disk_csr(positions, radius, ids=ids, torus=torus)
    return graph, csr


@settings(max_examples=60, deadline=None)
@given(placements())
def test_construction_matches_dict_builder(scenario):
    graph, csr = _both_graphs(scenario)
    assert csr == CSRGraph.from_graph(graph)
    assert csr.to_graph() == graph


@settings(max_examples=60, deadline=None)
@given(placements())
def test_clustering_matches_dict_implementation(scenario):
    graph, csr = _both_graphs(scenario)
    structure = lowest_id_clustering(graph)
    head_row = lowest_id_rows(csr)
    ids = csr.ids
    got = dict(zip(ids.tolist(), ids[head_row].tolist()))
    assert got == structure.head_of


@settings(max_examples=40, deadline=None)
@given(placements())
def test_coverage_matches_dict_implementation(scenario):
    graph, csr = _both_graphs(scenario)
    structure = lowest_id_clustering(graph)
    head_row = lowest_id_rows(csr)
    for arrays_fn, dict_fn in (
        (two_five_hop_arrays, ch_hop_walk),
        (three_hop_arrays, three_hop_coverage),
    ):
        got = arrays_fn(csr, head_row).materialise_all()
        want = {h: dict_fn(structure, h) for h in structure.sorted_heads()}
        assert got == want
        assert list(got) == list(want)  # same (ascending) head order


@settings(max_examples=40, deadline=None)
@given(placements())
def test_gateway_selection_matches_dict_implementation(scenario):
    graph, csr = _both_graphs(scenario)
    structure = lowest_id_clustering(graph)
    head_row = lowest_id_rows(csr)
    for policy, arrays_fn, dict_fn in (
        (CoveragePolicy.TWO_FIVE_HOP, two_five_hop_arrays,
         two_five_hop_coverage),
        (CoveragePolicy.THREE_HOP, three_hop_arrays, three_hop_coverage),
    ):
        arrays = arrays_fn(csr, head_row)
        got = select_gateways_batch(arrays).materialise_all()
        want = {
            h: select_gateways(dict_fn(structure, h))
            for h in structure.sorted_heads()
        }
        assert got == want
