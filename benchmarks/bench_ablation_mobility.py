"""Ablation (extension): static-backbone maintenance cost under mobility.

The paper's argument for the dynamic backbone is that "maintaining a static
backbone at all times for broadcasting is costly".  This bench drives a
network with a random walk at increasing speeds and measures how many
clusterheads would need to re-signal (coverage-set or selection change) per
tick — the cost that the dynamic backbone avoids entirely.
"""

import pytest

from repro.geometry.mobility import RandomWalk
from repro.graph.generators import random_geometric_network
from repro.maintenance.kernels import KernelMobilitySession

SPEEDS = (0.5, 2.0, 8.0)
TICKS = 8


def measure():
    rows = []
    for speed in SPEEDS:
        resignal = 0.0
        turnover = 0.0
        links = 0.0
        trials = 4
        for seed in range(trials):
            net = random_geometric_network(50, 10.0, rng=seed * 31 + 7)
            session = KernelMobilitySession.from_network(
                net, RandomWalk(speed=speed, area=net.area, rng=seed)
            )
            for report in session.run(TICKS):
                resignal += report.resignalling
                turnover += report.gateways_gained + report.gateways_lost
                links += report.link_changes
        denom = trials * TICKS
        rows.append((speed, resignal / denom, turnover / denom, links / denom))
    return rows


@pytest.mark.benchmark(group="ablation-mobility")
def test_maintenance_cost_vs_speed(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print(f"{'speed':>6} | {'heads re-signalling':>20} "
          f"{'gateway turnover':>17} {'link changes':>13}")
    for speed, resignal, turnover, links in rows:
        print(f"{speed:>6g} | {resignal:>20.2f} {turnover:>17.2f} "
              f"{links:>13.2f}")
    # Maintenance burden grows with node speed.
    assert rows[0][3] < rows[-1][3]          # link churn
    assert rows[0][1] <= rows[-1][1] + 0.5   # re-signalling heads
    # Even slow movement forces some re-signalling: the paper's point.
    assert rows[0][1] > 0.0
