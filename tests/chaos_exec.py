"""Chaos helpers for the execution layer (not collected as tests).

Importable fault-injecting trial factories plus a tiny journaled-run driver
for subprocess kill/resume experiments.  Everything here is deterministic
*in its metrics*: a chaos trial draws its metric value from the trial
generator **before** any injected failure, so a retried or resumed chunk
reproduces the exact value an undisturbed run would have produced — which
is what lets the chaos tests assert bit-identical estimates.

Failure injections fire **once** each, coordinated through marker files
(`O_CREAT | O_EXCL`, so exactly one execution claims a marker even across
processes): the first execution of a designated trial index crashes /
sleeps / raises, the retry after supervision recovery sails through.

Injection modes (all keyed by trial index):

* ``crash``  — ``SIGKILL`` the executing process.  Under the process
  backend that is a *worker suicide* (the pool breaks with
  ``BrokenProcessPool``); under the serial backend it kills the run
  itself — the mid-run parent death of the kill/resume tests.
* ``sleep``  — block past the supervisor's chunk timeout (a hang).
* ``raise``  — throw a transient ``RuntimeError``.

Run as a script, this module is the subprocess driver used by the
kill/resume tests and ``benchmarks/bench_chaos_exec.py``::

    python tests/chaos_exec.py --journal run.jsonl --marker-dir /tmp/m \\
        --trials 12 --seed 3 --crash-index 7 --out estimates.json

The driver runs a journaled `paired_trials` over the chaos spec (backend
and worker count selectable) and writes the folded estimates as JSON; with ``--crash-index K`` the run
SIGKILLs itself while executing trial ``K`` (first run only — trials
``0..K-1`` are safely journaled), and a second invocation with
``--resume`` finishes the run from the journal.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np


def claim_marker(marker_dir: str, name: str) -> bool:
    """Atomically claim a one-shot failure marker; True for the first caller."""
    path = Path(marker_dir) / name
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def make_chaos_trial(
    *,
    marker_dir: str,
    crash_indices: tuple = (),
    sleep_indices: tuple = (),
    sleep_seconds: float = 5.0,
    raise_indices: tuple = (),
    trial_sleep: float = 0.0,
) -> "callable":
    """Trial-spec factory: a deterministic metric plus one-shot injections.

    The metric (``{"m": uniform draw}``) comes from the trial generator
    before any injection, so chaos never perturbs the value stream.  Each
    listed index fails once (per marker directory) in its designated mode
    and behaves normally ever after.  ``trial_sleep`` pads every trial so
    an external test has a window to SIGKILL the run mid-stream.
    """

    def trial(index: int, gen: np.random.Generator):
        values = {"m": float(gen.uniform())}
        if trial_sleep > 0:
            time.sleep(trial_sleep)
        if index in crash_indices and claim_marker(marker_dir, f"crash-{index}"):
            os.kill(os.getpid(), signal.SIGKILL)
        if index in sleep_indices and claim_marker(marker_dir, f"sleep-{index}"):
            time.sleep(sleep_seconds)
        if index in raise_indices and claim_marker(marker_dir, f"raise-{index}"):
            raise RuntimeError(f"injected transient failure at trial {index}")
        return values

    return trial


def make_noise_trial(*, means: tuple = (("m", 10.0),),
                     noise: float = 0.0) -> "callable":
    """Trial-spec factory: ``mean + noise * standard normal`` per metric.

    ``means`` is a tuple of ``(label, mean)`` pairs; each label draws one
    standard normal in order.  ``noise=0`` gives constant metrics.
    """

    def trial(index: int, gen: np.random.Generator):
        return {label: mean + noise * float(gen.standard_normal())
                for label, mean in means}

    return trial


def noise_spec(noise: float, **means: float):
    """A :func:`make_noise_trial` spec, one ``label=mean`` metric per keyword."""
    from repro.exec.spec import TrialSpec

    return TrialSpec.create("chaos_exec:make_noise_trial",
                            means=tuple(sorted(means.items())), noise=noise)


def run_journaled(argv=None) -> int:
    """The subprocess driver: one journaled chaos run (see module docstring)."""
    parser = argparse.ArgumentParser(description="journaled chaos run")
    parser.add_argument("--journal", required=True)
    parser.add_argument("--marker-dir", required=True)
    parser.add_argument("--trials", type=int, default=12)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--backend", default="serial",
                        choices=["serial", "process"])
    parser.add_argument("--parallel", type=int, default=1)
    parser.add_argument("--trial-sleep", type=float, default=0.0,
                        help="pad each trial so an external killer can "
                             "strike mid-run")
    parser.add_argument("--crash-index", type=int, default=None,
                        help="SIGKILL the run itself while executing this "
                             "trial (once per marker dir), before it is "
                             "journaled")
    parser.add_argument("--no-journal", action="store_true",
                        help="plain run (the uninterrupted reference)")
    parser.add_argument("--out", default=None,
                        help="write folded estimates as JSON here")
    args = parser.parse_args(argv)

    from repro.exec.journal import RunJournal
    from repro.exec.spec import TrialSpec
    from repro.workload.trials import paired_trials

    crash = (args.crash_index,) if args.crash_index is not None else ()
    spec = TrialSpec.create(
        "chaos_exec:make_chaos_trial",
        marker_dir=args.marker_dir, crash_indices=crash,
        trial_sleep=args.trial_sleep,
    )
    # Deliberately backend-free: estimates are backend-independent, so a
    # run may be resumed on a different backend or worker count.
    run_key = {"driver": "chaos_exec", "trials": args.trials,
               "seed": args.seed}
    journal = None
    point = None
    if not args.no_journal:
        journal = RunJournal.open(args.journal, run_key, resume=args.resume)
        point = journal.point("chaos")
    outcome = paired_trials(
        spec=spec, min_samples=args.trials, max_samples=args.trials,
        rng=args.seed, backend=args.backend, parallel=args.parallel,
        journal=point,
    )
    if journal is not None:
        journal.close()
    if args.out:
        estimates = {
            label: {"mean": ci.mean, "half_width": ci.half_width,
                    "confidence": ci.confidence, "samples": ci.samples}
            for label, ci in sorted(outcome.estimates.items())
        }
        Path(args.out).write_text(json.dumps(
            {"estimates": estimates, "trials": outcome.trials,
             "converged": outcome.converged}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(run_journaled())
