"""Contention bench: the CDS backbone survives interference flooding cannot.

Three gates, shared by pytest collection, the CI ``channel-smoke`` job and
``make bench-channel``:

* **Identity** — a medium carrying an :class:`~repro.channel.model.IdealChannel`
  (no MAC) replays the bare medium bit-for-bit: same trace, same
  receptions, same RNG consumption (the channel seam is free until a real
  model is attached);
* **Gap** — at the paper's n=100 scale under SINR + slotted CSMA, flooding's
  redundant relays raise the interference sum enough to destroy their own
  delivery: the flooding-vs-SI delivery gap must stay open (and SD must
  beat flooding too);
* **Determinism** — the contention sweep is bit-identical across the
  serial/process backends and worker counts.

With ``--gate`` the run additionally fails when sweep throughput drops
below ``0.7x`` the latest committed ``channel-contention`` point in
``BENCH_trials.json``; ``--update`` records a fresh baseline.  Throughput
is the median over ``TIMED_SWEEPS`` timed sweeps: one sweep lasts about
0.3 s, and single timings of the same code spread from 38 to 64 trials/s
on a shared 2-vCPU host, so one sweep decides the gate by host luck::

    PYTHONPATH=src python benchmarks/bench_channel.py --quick
    PYTHONPATH=src python benchmarks/bench_channel.py --gate
    PYTHONPATH=src python benchmarks/bench_channel.py --update
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.channel import IdealChannel
from repro.exec.scenarios import connected_scenario
from repro.io.results import append_perf_point, latest_perf_point
from repro.protocols.broadcast import DistributedSIBroadcast
from repro.sim.network import SimNetwork
from repro.workload.contention import (
    CONTENTION_PROTOCOLS,
    run_contention_sweep,
)

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_trials.json"

#: Fail the ``--gate`` run below this fraction of the committed throughput.
REGRESSION_FLOOR = 0.7

#: Timed sweeps per run; throughput is taken from their median time.
TIMED_SWEEPS = 5

#: Minimum delivery-ratio lead of the SI backbone over flooding at n=100.
GAP_FLOOR = 0.02

#: The gated scenario: the paper's densest size, where redundancy hurts most.
SCENARIO = {"n": 100, "average_degree": 8.0}


def check_ideal_identity(*, n: int = 60, seed: int = 3) -> None:
    """Assert the IdealChannel replays the bare medium bit-for-bit."""
    graph = connected_scenario(n, 8.0, root=seed).network.graph

    def flood(channel):
        net = SimNetwork(graph, loss_probability=0.25, rng=seed,
                         channel=channel)
        protocol = DistributedSIBroadcast(net, graph.nodes())
        protocol.start(0)
        net.run_phase()
        return protocol.result(), net.trace.entries

    bare, bare_trace = flood(None)
    ideal, ideal_trace = flood(IdealChannel())
    assert bare_trace == ideal_trace, "IdealChannel changed the trace"
    assert bare.received == ideal.received, "IdealChannel changed receptions"
    assert bare.reception_time == ideal.reception_time, (
        "IdealChannel changed reception times"
    )


def run_bench(*, quick: bool, trials: int, seed: int) -> dict:
    """Run the gated sweep and the identity/determinism checks."""
    check_ideal_identity(seed=seed + 1)

    times = []
    for _ in range(TIMED_SWEEPS):
        t0 = time.perf_counter()
        points = run_contention_sweep(
            losses=(0.0,), trials=trials, mac="csma", rng=seed, **SCENARIO,
        )
        times.append(time.perf_counter() - t0)
    elapsed = statistics.median(times)

    backends = [("process", 2)] if quick else [("process", 2), ("process", 4)]
    bit_identical = True
    for backend, workers in backends:
        other = run_contention_sweep(
            losses=(0.0,), trials=trials, mac="csma", rng=seed,
            backend=backend, parallel=workers, **SCENARIO,
        )
        bit_identical = bit_identical and (other == points)

    point = points[0]
    return {
        "label": f"channel-contention-n{SCENARIO['n']}",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **SCENARIO,
        "mac": "csma",
        "trials": trials,
        "seed": seed,
        "sweeps": TIMED_SWEEPS,
        "seconds": round(elapsed, 3),
        "trials_per_sec": round(trials / elapsed, 1),
        "bit_identical": bit_identical,
        "delivery": {k: round(v, 4) for k, v in point.delivery.items()},
        "collisions": {k: round(v, 1) for k, v in point.collisions.items()},
        "gap": round(point.delivery["si"] - point.delivery["flooding"], 4),
    }


def check_contention_claim(summary: dict) -> None:
    """The acceptance criteria, shared by pytest and the CLI."""
    delivery = summary["delivery"]
    assert summary["bit_identical"], (
        "contention sweep differs across execution backends"
    )
    assert summary["gap"] >= GAP_FLOOR, (
        f"flooding {delivery['flooding']:.4f} vs SI {delivery['si']:.4f}: "
        f"gap {summary['gap']:.4f} below {GAP_FLOOR} — interference no "
        f"longer punishes redundancy"
    )
    assert delivery["flooding"] < delivery["sd"], (
        f"flooding {delivery['flooding']:.4f} not below SD "
        f"{delivery['sd']:.4f} under contention"
    )


def check_gate(summary: dict, bench_file: Path) -> None:
    """Fail when sweep throughput regressed past the floor."""
    previous = latest_perf_point(bench_file, summary["label"])
    if previous is None:
        return
    floor = REGRESSION_FLOOR * float(previous["trials_per_sec"])
    assert summary["trials_per_sec"] >= floor, (
        f"contention sweep regressed: {summary['trials_per_sec']:.1f} "
        f"trials/s < {floor:.1f} (70% of the committed "
        f"{previous['trials_per_sec']:.1f} from {previous.get('timestamp')})"
    )


def test_ideal_channel_is_bit_identical():
    """Pytest hook: the channel seam is free until a model is attached."""
    check_ideal_identity()


def test_backbone_survives_contention_flooding_does_not():
    """Pytest hook: the n=100 gap claim on a quick trial budget."""
    summary = run_bench(quick=True, trials=6, seed=42)
    check_contention_claim(summary)


def main(argv=None) -> int:
    """CLI entry point; returns a process exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small trial budget; checks bit identity "
                             "against a 2-worker process pool only")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON")
    parser.add_argument("--trials", type=int, default=None,
                        help="paired trials (default 16; 6 with --quick)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--gate", action="store_true",
                        help="also fail below 0.7x the committed throughput "
                             "(median of the timed sweeps)")
    parser.add_argument("--update", action="store_true",
                        help="record a fresh baseline trajectory point")
    parser.add_argument("--bench-file", type=Path, default=BENCH_FILE)
    args = parser.parse_args(argv)

    trials = args.trials if args.trials is not None else (
        6 if args.quick else 16)
    summary = run_bench(quick=args.quick, trials=trials, seed=args.seed)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"channel bench: n={summary['n']} d={summary['average_degree']}"
              f" mac={summary['mac']} trials={trials} ({summary['seconds']}s,"
              f" backends identical: {summary['bit_identical']})")
        header = " ".join(f"{p:>10}" for p in CONTENTION_PROTOCOLS)
        print(f"  {'':>10} | {header}")
        for axis in ("delivery", "collisions"):
            row = " ".join(f"{summary[axis][p]:>10.3f}"
                           for p in CONTENTION_PROTOCOLS)
            print(f"  {axis:>10} | {row}")
    try:
        check_contention_claim(summary)
        if args.gate:
            check_gate(summary, args.bench_file)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"OK: ideal identity holds; SI leads flooding by "
          f"{summary['gap']:.4f} delivery at n={summary['n']}")
    if args.update:
        length = append_perf_point(args.bench_file, summary)
        print(f"recorded trajectory point {length} in {args.bench_file}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
