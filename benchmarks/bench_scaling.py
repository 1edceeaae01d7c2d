"""Scaling bench: the pipeline far beyond the paper's n=100.

Checks that (a) end-to-end construction stays fast at thousands of nodes
(the spatial-hash build and linear clustering doing their jobs), and
(b) the backbone and dynamic-forward *fractions* stay roughly flat for
fixed density — the property that makes the approach usable at scale.

Run as a script with ``--large`` to push the CSR kernels to ``n=100000``
(broadcast off, pure array path) and append the measured point —
construction throughput and process peak RSS — to ``BENCH_trials.json``.
Add ``--broadcast`` to also run the SD broadcast-delivery kernel over the
giant component (array-native end to end; this is how the ``n=1000000``
broadcast point is produced).  Regressions of the n=100k pipeline are
gated by the repository benchmark's ``metro-n100k`` workload
(``perfbench/``), not here.
"""

import argparse
import json
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro import perf
from repro.io.results import append_perf_point
from repro.workload.scaling import run_scaling_study

NS = (100, 300, 1000, 3000)

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_trials.json"


@pytest.mark.benchmark(group="scaling")
def test_pipeline_scaling(benchmark):
    points = benchmark.pedantic(
        run_scaling_study, kwargs=dict(ns=NS, average_degree=12.0, rng=1),
        rounds=1, iterations=1,
    )
    print()
    print(f"{'n':>6} {'comp':>6} | {'build':>7} {'cluster':>8} "
          f"{'coverage':>9} {'backbone':>9} {'bcast':>7} | "
          f"{'|CDS|/n':>8} {'dyn/n':>7}")
    for p in points:
        print(f"{p.n:>6} {p.component_n:>6} | {p.build_seconds:>7.3f} "
              f"{p.cluster_seconds:>8.3f} {p.coverage_seconds:>9.3f} "
              f"{p.backbone_seconds:>9.3f} {p.broadcast_seconds:>7.3f} | "
              f"{p.backbone_fraction:>8.3f} {p.dynamic_fraction:>7.3f}")
    benchmark.extra_info["points"] = [
        {"n": p.n, "total_seconds": p.total_seconds,
         "backbone_fraction": p.backbone_fraction} for p in points
    ]
    largest = points[-1]
    # Whole pipeline at n=3000 in well under ten seconds.
    assert largest.total_seconds < 10.0
    # Fractions roughly flat across a 30x size range (fixed density).
    fractions = [p.backbone_fraction for p in points]
    assert max(fractions) - min(fractions) < 0.15
    for p in points:
        assert p.dynamic_fraction <= p.backbone_fraction + 0.02


def run_large(n: int = 100_000, degree: float = 12.0, seed: int = 1,
              broadcast: bool = False) -> dict:
    """One giant-``n`` pipeline run on the pure CSR path, stage-streamed."""
    stages = {}

    def on_stage(_n, stage, seconds):
        stages[stage] = round(seconds, 3)
        print(f"  {stage:<14} {seconds:>8.3f}s", flush=True)

    print(f"scaling the CSR pipeline to n={n} (degree {degree}"
          f"{', with SD broadcast' if broadcast else ''})")
    points = run_scaling_study(
        ns=(n,), average_degree=degree, rng=seed,
        on_stage=on_stage, with_broadcast=broadcast,
    )
    p = points[0]
    label = f"csr-scaling-n{n}" + ("+broadcast" if broadcast else "")
    summary = {
        "label": label,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "n": p.n,
        "component_n": p.component_n,
        "degree": degree,
        "seed": seed,
        "stages": stages,
        "total_seconds": round(p.total_seconds, 3),
        "nodes_per_sec": round(p.n / p.total_seconds),
        "backbone_fraction": round(p.backbone_fraction, 4),
        "peak_rss_bytes": perf.peak_rss_bytes(),
    }
    if broadcast:
        summary["broadcast_seconds"] = round(p.broadcast_seconds, 3)
        summary["broadcast_nodes_per_sec"] = round(
            p.component_n / p.broadcast_seconds)
        summary["dynamic_fraction"] = round(p.dynamic_fraction, 4)
    return summary


def main(argv=None) -> int:
    """CLI entry point; returns a process exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--large", action="store_true",
                        help="run the n=100000 CSR-path point")
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--degree", type=float, default=12.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--broadcast", action="store_true",
                        help="include the SD broadcast-delivery kernel")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--bench-file", type=Path, default=BENCH_FILE)
    parser.add_argument("--no-record", action="store_true")
    args = parser.parse_args(argv)
    if not args.large:
        parser.error("script mode needs --large (pytest runs the rest)")
    summary = run_large(n=args.n, degree=args.degree, seed=args.seed,
                        broadcast=args.broadcast)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        extra = ""
        if args.broadcast:
            extra = (f", SD broadcast {summary['broadcast_seconds']:.3f}s "
                     f"({summary['broadcast_nodes_per_sec']:,.0f} nodes/s)")
        print(f"n={summary['n']} pipeline {summary['total_seconds']:.3f}s "
              f"({summary['nodes_per_sec']:,.0f} nodes/s), "
              f"peak RSS {summary['peak_rss_bytes'] / 2**20:.0f} MiB, "
              f"backbone fraction {summary['backbone_fraction']:.3f}{extra}")
    if not args.no_record:
        length = append_perf_point(args.bench_file, summary)
        print(f"recorded trajectory point {length} in {args.bench_file}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
