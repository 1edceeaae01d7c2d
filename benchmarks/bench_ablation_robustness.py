"""Ablation (extension): delivery under a lossy data plane.

The paper assumes a perfect MAC; this bench measures what each scheme's
redundancy buys when deliveries are dropped anyway.  Expected shape:
flooding (maximal redundancy) degrades most gracefully; the lean dynamic
backbone loses delivery fastest; the static backbone sits between or below
depending on how many redundant CDS paths survive.
"""

import pytest

from repro.workload.faultsweep import run_fault_sweep
from repro.workload.robustness import run_robustness_sweep

LOSSES = (0.0, 0.1, 0.2, 0.3)


@pytest.mark.benchmark(group="ablation-robustness")
def test_delivery_under_loss(benchmark):
    points = benchmark.pedantic(
        run_robustness_sweep,
        kwargs=dict(losses=LOSSES, n=50, average_degree=10.0, trials=12,
                    rng=2003),
        rounds=1, iterations=1,
    )
    print()
    print(f"{'loss':>6} | {'flooding':>9} {'static':>8} {'dynamic':>8}")
    for p in points:
        print(f"{p.loss_probability:>6g} | {p.delivery['flooding']:>9.3f} "
              f"{p.delivery['static']:>8.3f} {p.delivery['dynamic']:>8.3f}")
    ideal, worst = points[0], points[-1]
    for proto in ("flooding", "static", "dynamic"):
        assert ideal.delivery[proto] == pytest.approx(1.0)
        assert worst.delivery[proto] <= ideal.delivery[proto]
    # Redundancy protects: flooding >= backbones at the worst loss point.
    assert worst.delivery["flooding"] >= worst.delivery["static"] - 1e-9
    assert worst.delivery["flooding"] >= worst.delivery["dynamic"] - 0.05
    # And the backbones pay *something* for their efficiency.
    assert min(worst.delivery["static"], worst.delivery["dynamic"]) < 1.0


@pytest.mark.benchmark(group="ablation-robustness")
def test_reliable_backbone_under_loss(benchmark):
    """ARQ over the backbones: delivery bought with retransmissions."""
    points = benchmark.pedantic(
        run_fault_sweep,
        kwargs=dict(losses=LOSSES, n=50, average_degree=10.0, trials=10,
                    crash_fraction=0.0, rng=11),
        rounds=1, iterations=1,
    )
    reliable = ("reliable-si", "reliable-sd")
    print()
    print(f"{'loss':>6} | {'sd':>6} " + " ".join(
        f"{name + ' deliv':>17} {'tx/node':>7}" for name in reliable))
    for p in points:
        print(f"{p.loss_probability:>6g} | {p.delivery['sd']:>6.3f} "
              + " ".join(f"{p.delivery[name]:>17.3f} {p.overhead[name]:>7.2f}"
                         for name in reliable))
    for name in reliable:
        # Reliability holds at every loss level the sweep uses...
        for p in points:
            assert p.delivery[name] == pytest.approx(1.0)
        # ...and its price is monotone in the loss rate.
        overheads = [p.overhead[name] for p in points]
        assert overheads == sorted(overheads)
