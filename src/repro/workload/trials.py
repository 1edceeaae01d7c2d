"""Paired sequential trials.

All algorithms under comparison are evaluated on the **same** network sample
in each trial (a paired design): differences between curves then come from
the algorithms, not from sampling luck, and the paper's stopping rule is
applied to every metric — the point is done when *all* metrics' confidence
intervals are tight.

Every trial is a :class:`~repro.exec.spec.TrialSpec` run by one of two
execution backends (``serial``, the bit-exact reference, or ``process``;
see :mod:`repro.exec.backends`): each trial draws from its own child
generator spawned deterministically from the root stream, results fold in
trial order, and the stopping rule is checked after every folded trial — so
the outcome is bit-identical across backends and worker counts, and a
converged point stops submitting new work.  Batch sizes are adaptive: the
next submission wave is projected from the current relative half-width
instead of a fixed block, so convergence is not overshot by up to a full
batch.

A resolved trial function may additionally expose a ``run_batch``
attribute — the seam the array broadcast kernels
(:mod:`repro.broadcast.kernels`) use to evaluate a whole submission wave in
one vectorised invocation instead of one trial at a time.  The contract is
bit-exactness: ``run_batch`` must return exactly what per-trial calls
would, so the stopping rule, journal replay and backend equivalence
guarantees above all carry over unchanged.

Folded outcomes can additionally be written through a crash-safe
:class:`~repro.exec.journal.PointJournal` (``journal=``): an interrupted
run replays the journaled prefix and resumes bit-identically, and the
backend can be a :class:`~repro.exec.supervise.SupervisedBackend` so worker
crashes, hangs and transient faults are retried or degraded around rather
than fatal (see docs/resilience.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.errors import ConfigurationError, SampleBudgetExceededError
from repro.exec.backends import BackendLike, as_backend
from repro.exec.journal import PointJournal
from repro.exec.spec import TrialSpec
from repro.metrics.confidence import (
    ConfidenceInterval,
    SequentialEstimator,
    validate_stopping_rule,
)
from repro.rng import RngLike, ensure_rng, spawn_seeds


@dataclass(frozen=True)
class TrialOutcome:
    """Converged estimates for one experiment point.

    Attributes:
        estimates: Metric label -> confidence interval.
        trials: Number of paired trials folded into the estimates (extra
            trials submitted past the stopping point are discarded, so this
            is deterministic across backends and worker counts).
        converged: Whether every metric met the stopping rule (``False`` only
            when ``strict=False`` and the budget ran out).
    """

    estimates: Mapping[str, ConfidenceInterval]
    trials: int
    converged: bool


def _next_wave(folded: int, estimators: Dict[str, SequentialEstimator],
               min_samples: int, max_samples: int, workers: int) -> int:
    """Adaptive submission-wave size.

    Before ``min_samples`` the answer is exact (those trials run
    unconditionally).  After, the wave is the projected remaining deficit
    (see :meth:`SequentialEstimator.projected_samples`), re-evaluated at
    most every ``4 * workers`` trials so a noisy early projection cannot
    commit the whole budget in one go.  Wave sizing affects only how much
    speculative work is submitted — never the estimates, which depend
    exclusively on the fold order.
    """
    if folded < min_samples:
        wave = min_samples - folded
    else:
        projected = max(
            (e.projected_samples() for e in estimators.values()),
            default=folded + 1,
        )
        wave = max(1, projected - folded)
    return min(wave, max(4 * workers, 8), max_samples - folded)


def paired_trials(
    *,
    spec: TrialSpec,
    confidence: float = 0.99,
    target: float = 0.05,
    min_samples: int = 30,
    max_samples: int = 4000,
    rng: RngLike = None,
    strict: bool = False,
    parallel: int = 1,
    backend: BackendLike = None,
    journal: Optional[PointJournal] = None,
) -> TrialOutcome:
    """Run paired trials until the stopping rule holds for every metric.

    Args:
        spec: A picklable :class:`~repro.exec.spec.TrialSpec` whose
            resolved trial takes ``(trial_index, generator)`` and returns
            one value per metric label.
        confidence: CI confidence level (paper: 0.99).
        target: Relative half-width target (paper: ±5%).
        min_samples: Trials before convergence may be declared (>= 2).
        max_samples: Hard budget (>= ``min_samples``).
        rng: Seed or generator for the trial streams.
        strict: If ``True``, raise
            :class:`~repro.errors.SampleBudgetExceededError` when the budget
            runs out; otherwise return the best-effort estimates with
            ``converged=False``.
        parallel: Worker count for the process backend.
        backend: ``"serial"`` / ``"process"``, an
            :class:`~repro.exec.backends.ExecutionBackend` instance, or
            ``None`` for ``serial`` when ``parallel == 1`` and ``process``
            otherwise.  Every backend shares one stream contract — trial
            ``i`` consumes spawned child stream ``i``, results fold in
            trial order, and the stopping rule is checked per folded
            trial — so estimates are **bit-identical** across backends and
            worker counts.
        journal: A :class:`~repro.exec.journal.PointJournal` to write
            every folded trial through (crash safety) and to replay a
            previous run's prefix from (resume).  Replayed trials come
            from the journal, live trials from the backend, and the
            trial-stream spawn counter is advanced past the replayed
            prefix — so a killed-and-resumed run folds exactly the
            sequence an uninterrupted run would have folded and the
            estimates are bit-identical.

    Returns:
        The :class:`TrialOutcome`.

    Raises:
        ConfigurationError: A non-spec trial, ``parallel < 1``, or a
            stopping rule no run could satisfy — checked before any trial
            runs or any pool starts.
    """
    if not isinstance(spec, TrialSpec):
        raise ConfigurationError(
            f"spec must be a TrialSpec, got {type(spec).__name__}; build "
            f"the trial with TrialSpec.create(...)"
        )
    if parallel < 1:
        raise ConfigurationError(f"parallel must be >= 1, got {parallel}")
    validate_stopping_rule(confidence, target, min_samples, max_samples)
    executor = as_backend(backend, parallel)
    generator = ensure_rng(rng)
    estimators: Dict[str, SequentialEstimator] = {}
    trials = 0
    converged = False

    def fold(values: Mapping[str, float]) -> bool:
        """Fold trial ``trials``; True once the point is finished."""
        nonlocal trials, converged
        for label, value in values.items():
            est = estimators.get(label)
            if est is None:
                est = estimators[label] = SequentialEstimator(
                    confidence=confidence,
                    target=target,
                    min_samples=min_samples,
                    max_samples=max_samples,
                )
            est.add(float(value))
        trials += 1
        converged = trials >= min_samples and all(
            e.converged() for e in estimators.values()
        )
        return converged or trials >= max_samples

    if journal is not None:
        # Resume: fold the journaled prefix (trials 0..k-1) exactly as
        # the original run folded it, then advance the spawn counter so
        # trial k onward consumes child stream k as it always would.
        for values in journal.replay_prefix():
            if fold(values):
                break
        if trials:
            spawn_seeds(generator, trials)
    while not converged and trials < max_samples:
        wave = _next_wave(trials, estimators, min_samples, max_samples,
                          parallel)
        seeds = spawn_seeds(generator, wave)
        for values in executor.run_wave(spec, trials, seeds):
            # Fold in trial order (determinism).  Results past the point's
            # end are speculative overshoot; discarding them keeps the
            # outcome independent of wave partitioning.
            if journal is not None:
                journal.record(trials, values)
            if fold(values):
                break
    if strict and not converged:
        worst = max(
            estimators.values(), key=lambda e: e.interval().relative_half_width
        )
        raise SampleBudgetExceededError(
            trials=trials,
            half_width_ratio=worst.interval().relative_half_width,
            target=target,
        )
    return TrialOutcome(
        estimates={label: e.interval() for label, e in estimators.items()},
        trials=trials,
        converged=converged,
    )
