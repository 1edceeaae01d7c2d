"""Fast self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that a plain and a traced run each print a
result line with exactly the metric names and units of
``BENCHMARK.json`` and pass their checks, and that a planted wrong oracle
value makes the run report ``correct: false`` and exit 1.  It also
checks that the benchmark refuses to run, without printing a result, from
a directory holding only ``BENCHMARK.json`` and the benchmark's own files.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def run(*args: str, cwd: Path = ROOT) -> "tuple[int, list]":
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(args: list, exit_code: int = 0) -> dict:
    code, lines = run(*args)
    if code != exit_code or not lines:
        raise SystemExit(f"FAIL {args}: exit {code}, expected {exit_code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"FAIL {args}: result keys {sorted(result)}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "0", "--seconds",
                    SECONDS, "--trace", trace, "--tiny"]
            result = result_of(args)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                raise SystemExit(f"FAIL {workload} trace={trace}: metrics "
                                 f"{sorted(got.items())} != "
                                 f"{sorted(want.items())}")
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"FAIL {workload} trace={trace}: checks "
                                 f"failed on a clean run")
            print(f"ok   {workload} trace={trace}: "
                  f"{len(got)} metrics, {result['attempted']} ops")
        planted = result_of(["--workload", workload, "--seed", "0",
                             "--seconds", SECONDS, "--trace", "0", "--tiny",
                             "--plant-wrong-oracle"], exit_code=1)
        if planted["correct"] or not planted["failed"]:
            raise SystemExit(f"FAIL {workload}: a planted wrong oracle "
                             f"value went unnoticed")
        print(f"ok   {workload}: planted wrong oracle value detected")

    bare = ROOT / ".perfbench-state" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run("--workload", "paper-sweep", "--seed", "0",
                      "--seconds", SECONDS, "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        raise SystemExit("FAIL the benchmark ran without the library source")
    print("ok   refuses to run without the library source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
