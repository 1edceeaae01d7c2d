"""Mobility maintenance kernel benchmark with an equivalence + regression gate.

Measures per-tick backbone maintenance at n=2000 two ways:

* **kernel** — the array-native :class:`KernelMobilitySession` driven
  directly (what :class:`MobilitySession` dispatches to above the CSR
  cutover, and what the 100k workload runs): vectorised stepping, a CSR
  rebuild diffed against the previous tick's edge keys, lowest-ID repair
  from the changed edges, then coverage and gateway selection for every
  head on arrays;
* **rebuild** — the object layer's full per-tick rebuild
  (``MobilitySession(kernel=False)``): unit-disk reconstruction plus
  from-scratch clustering and backbone derivation.

The routes alternate inside one process, best-of-``--reps`` each, so
machine-load drift hits both sides equally — the speedup is the honest
ratio, not an artefact of when each side ran.  Before any timing, a small
session is checked **bit-identical** tick-for-tick against the rebuild
(structures, backbones, churn); the bench refuses to report a speedup for
kernels that do not reproduce the reference numbers.

Modes (same discipline as ``bench_csr_construction.py``):

* default: measure and print;
* ``--update``: also append the point to ``BENCH_trials.json``
  (label ``mobility-kernels-n2000``);
* ``--gate``: skip the reference re-measurements and fail (exit 1) when
  kernel throughput drops below ``0.7x`` the committed point — the CI
  regression gate for the maintenance kernels.
"""

from __future__ import annotations

import argparse
import json
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.geometry.area import Area
from repro.geometry.disk import range_for_target_degree
from repro.geometry.mobility import RandomWaypoint
from repro.geometry.placement import uniform_placement
from repro.graph.network import Network
from repro.io.results import append_perf_point, latest_perf_point
from repro.maintenance.kernels import KernelMobilitySession
from repro.maintenance.session import MobilitySession

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_trials.json"

#: Fail the ``--gate`` run below this fraction of the committed throughput.
REGRESSION_FLOOR = 0.7

#: Per-tick node speed as a fraction of the transmission range.
SPEED_FRACTION = 0.05


def _geometry(n: int, degree: float, seed: int):
    """Shared placement + mobility recipe so every route sees one workload."""
    side = 100.0 * (n / 100.0) ** 0.5
    area = Area(side, side)
    radius = range_for_target_degree(n, degree, area)
    pts = uniform_placement(n, area, rng=np.random.default_rng(seed))
    speed = SPEED_FRACTION * radius
    model = RandomWaypoint(
        speed_range=(0.5 * speed, 1.5 * speed), pause_time=0.0, area=area,
        rng=np.random.default_rng(seed + 1),
    )
    return pts, radius, area, model


def _rebuild_session(n: int, degree: float, seed: int) -> MobilitySession:
    """The object layer's from-scratch rebuild session."""
    pts, radius, area, model = _geometry(n, degree, seed)
    net = Network.from_positions(pts, radius, area=area)
    return MobilitySession(net, model, kernel=False)


def _kernel_session(n: int, degree: float, seed: int) -> KernelMobilitySession:
    """The array-native session on the identical workload."""
    pts, radius, area, model = _geometry(n, degree, seed)
    return KernelMobilitySession(pts, radius, model, area=area,
                                 connectivity=True)


def check_equivalence(*, n: int = 350, degree: float = 12.0, seed: int = 7,
                      ticks: int = 3) -> None:
    """Assert the kernel session is bit-identical to the reference."""
    pts, radius, area, model = _geometry(n, degree, seed)
    net = Network.from_positions(pts, radius, area=area)
    ref = MobilitySession(net, model, kernel=False)
    _, _, _, kmodel = _geometry(n, degree, seed)
    ker = MobilitySession(net, kmodel, kernel=True)
    for tick in range(ticks):
        ro, rk = ref.step(1.0), ker.step(1.0)
        assert set(ro.network.graph.edges()) == set(rk.network.graph.edges()), (
            f"tick {tick}: kernel graph diverged from reference"
        )
        assert ro.structure.head_of == rk.structure.head_of, (
            f"tick {tick}: kernel clustering diverged from reference"
        )
        assert ro.backbone.gateways == rk.backbone.gateways, (
            f"tick {tick}: kernel gateway set diverged from reference"
        )
        assert (ro.cluster_churn, ro.backbone_churn, ro.link_changes) == (
            rk.cluster_churn, rk.backbone_churn, rk.link_changes
        ), f"tick {tick}: kernel churn diverged from reference"


def _time_ticks(session, ticks: int) -> float:
    """Wall clock of ``ticks`` steady-state maintenance steps.

    One untimed warm-up tick first (same discipline as the scaling
    workload, applied to every route alike): the measurement is the
    steady-state per-tick cost, not allocator warm-up on tick one.
    """
    session.step(1.0)
    t0 = time.perf_counter()
    for _ in range(ticks):
        session.step(1.0)
    return time.perf_counter() - t0


def run_bench(*, n: int = 2000, degree: float = 12.0, seed: int = 11,
              ticks: int = 4, reps: int = 4,
              with_reference: bool = True) -> dict:
    """Interleaved best-of-``reps`` kernel vs object rebuild timing."""
    check_equivalence(degree=degree)
    kernel_best = rebuild_best = float("inf")
    for _ in range(reps):
        if with_reference:
            rebuild_best = min(rebuild_best, _time_ticks(
                _rebuild_session(n, degree, seed), ticks))
        kernel_best = min(kernel_best,
                          _time_ticks(_kernel_session(n, degree, seed), ticks))
    summary = {
        "label": f"mobility-kernels-n{n}",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "n": n,
        "degree": degree,
        "seed": seed,
        "ticks": ticks,
        "kernel_seconds": round(kernel_best, 4),
        "kernel_ticks_per_sec": round(ticks / kernel_best, 2),
    }
    if with_reference:
        summary["rebuild_seconds"] = round(rebuild_best, 4)
        summary["rebuild_ticks_per_sec"] = round(ticks / rebuild_best, 2)
        summary["speedup_vs_rebuild"] = round(rebuild_best / kernel_best, 2)
    return summary


def check_gate(summary: dict, bench_file: Path) -> None:
    """Fail when kernel maintenance throughput regressed past the floor."""
    previous = latest_perf_point(bench_file, summary["label"])
    if previous is None:
        return
    floor = REGRESSION_FLOOR * float(previous["kernel_ticks_per_sec"])
    assert summary["kernel_ticks_per_sec"] >= floor, (
        f"mobility kernels regressed: {summary['kernel_ticks_per_sec']:.2f} "
        f"ticks/s < {floor:.2f} (70% of the committed "
        f"{previous['kernel_ticks_per_sec']:.2f} from "
        f"{previous.get('timestamp')})"
    )


def test_kernel_session_matches_reference():
    """CI equivalence check: kernel ticks reproduce the object layer."""
    check_equivalence()


def main(argv=None) -> int:
    """CLI entry point; returns a process exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--degree", type=float, default=12.0)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--ticks", type=int, default=4)
    parser.add_argument("--reps", type=int, default=4)
    parser.add_argument("--gate", action="store_true",
                        help="equivalence check + fail below 0.7x the "
                             "committed kernel throughput (skips the slow "
                             "reference measurements; implies --no-record)")
    parser.add_argument("--update", action="store_true",
                        help="record a fresh baseline point")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--bench-file", type=Path, default=BENCH_FILE)
    args = parser.parse_args(argv)

    summary = run_bench(n=args.n, degree=args.degree, seed=args.seed,
                        ticks=args.ticks, reps=args.reps,
                        with_reference=not args.gate)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"mobility maintenance at n={summary['n']} "
              f"d={summary['degree']} ({summary['ticks']} ticks, "
              f"equivalence checked)")
        print(f"  kernel       {summary['kernel_seconds']:>8.4f}s "
              f"({summary['kernel_ticks_per_sec']:.2f} ticks/s)")
        if "speedup_vs_rebuild" in summary:
            print(f"  rebuild      {summary['rebuild_seconds']:>8.4f}s "
                  f"({summary['rebuild_ticks_per_sec']:.2f} ticks/s)")
            print(f"  speedup      {summary['speedup_vs_rebuild']:.2f}x vs "
                  f"full rebuild")
    if args.gate:
        try:
            check_gate(summary, args.bench_file)
        except AssertionError as exc:
            print(f"FAIL: {exc}")
            return 1
        previous = latest_perf_point(args.bench_file, summary["label"])
        base = (f"{previous['kernel_ticks_per_sec']:.2f} ticks/s committed"
                if previous else "no committed baseline")
        print(f"OK: mobility kernel gate passed ({base})")
        return 0
    if args.update:
        length = append_perf_point(args.bench_file, summary)
        print(f"recorded trajectory point {length} in {args.bench_file}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
