"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-sweep --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with every counter off;
``--trace 1`` adds a traced phase of the same length and reports the
per-layer metrics, including the tracing overhead.  The last stdout line
is the result object; the line before it carries the host fingerprint,
the exact work counts and any failed check.  The exit status is 0 when
every check passed, 1 when a result was printed but a check failed
(``correct`` is false), and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "paper-sweep": "paper_sweep",
    "metro-n100k": "metro",
    "serve-mix": "serve_mix",
}


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-test")
    parser.add_argument("--plant-wrong-oracle", action="store_true",
                        help="corrupt one expected value; the run must "
                             "then report correct=false (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import importlib

    import common

    module = importlib.import_module(WORKLOADS[args.workload])
    ctx = common.Context(workload=args.workload, seed=args.seed,
                         seconds=args.seconds, trace=bool(args.trace),
                         tiny=args.tiny,
                         plant_wrong_oracle=args.plant_wrong_oracle)
    spec = common.load_spec()
    steal = common.StealMeter()
    outcome = module.run(ctx, spec)
    outcome.detail["steal_pct"] = steal.percent()
    result = common.finish(ctx, outcome, spec)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
