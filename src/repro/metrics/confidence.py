"""Confidence intervals and the paper's sequential stopping rule.

Implements two-sided Student-t confidence intervals without SciPy.  The
t CDF is exact up to float rounding: the regularized incomplete beta
function, evaluated by its continued fraction (Lentz's method).  The t
quantile bisects that CDF, from a bracket seeded by Acklam's rational
approximation of the normal quantile, down to float resolution.

The stopping rule asks for the same few critical values over and over
(one per confidence level and sample count), so :func:`t_quantile` is
memoised: each ``(p, dof)`` pair is bisected once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence

from repro.errors import ConfigurationError


def inverse_normal_cdf(p: float) -> float:
    """Quantile of the standard normal (Acklam/Moro-style rational approx).

    Accurate to about 1.15e-9 over (0, 1).
    """
    if not (0.0 < p < 1.0):
        raise ConfigurationError(f"p must be in (0, 1), got {p}")
    # Coefficients from Peter Acklam's algorithm.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method, NR 6.4)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-15:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)`` via the continued-fraction representation."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, dof: int) -> float:
    """CDF of Student's t with ``dof`` degrees of freedom."""
    if dof < 1:
        raise ConfigurationError(f"degrees of freedom must be >= 1, got {dof}")
    if t == 0.0:
        return 0.5
    x = dof / (dof + t * t)
    tail = 0.5 * regularized_incomplete_beta(dof / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


@lru_cache(maxsize=None)
def t_quantile(p: float, dof: int) -> float:
    """Student-t quantile by bisecting the exact CDF.

    The normal quantile seeds the bracket.  Bisection runs until the
    bracket stops moving at float resolution (about 54 steps; 80 at
    most).  A step whose midpoint equals the end it would replace leaves
    ``lo`` and ``hi`` unchanged, and then so does every later step, so
    stopping there returns exactly what the full 80 steps would.

    The function is pure and memoised (:func:`functools.lru_cache`,
    unbounded): each ``(p, dof)`` pair is computed once per process.  The
    stopping rule asks for one ``dof`` per sample count, so the cache
    holds at most ``max_samples`` entries per confidence level.  Invalid
    arguments raise on every call; exceptions are never cached.
    """
    if dof < 1:
        raise ConfigurationError(f"degrees of freedom must be >= 1, got {dof}")
    if not (0.0 < p < 1.0):
        raise ConfigurationError(f"p must be in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    z = inverse_normal_cdf(p)
    # The t quantile has the same sign as z and a heavier tail: bracket by
    # growing the far end until the CDF crosses p.
    if z > 0:
        lo, hi = 0.0, max(2.0 * z, 2.0)
        while t_cdf(hi, dof) < p:
            hi *= 2.0
            if hi > 1e12:  # pragma: no cover - numerically unreachable
                break
    else:
        hi, lo = 0.0, min(2.0 * z, -2.0)
        while t_cdf(lo, dof) > p:
            lo *= 2.0
            if lo < -1e12:  # pragma: no cover
                break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, dof) < p:
            if mid == lo:
                break  # fixed point: every later step repeats this one
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A symmetric confidence interval ``mean ± half_width``."""

    mean: float
    half_width: float
    confidence: float
    samples: int

    @property
    def relative_half_width(self) -> float:
        """``half_width / |mean|`` (``inf`` for a zero mean with spread)."""
        if self.mean == 0.0:
            return 0.0 if self.half_width == 0.0 else math.inf
        return self.half_width / abs(self.mean)


def confidence_interval(values: Sequence[float], confidence: float = 0.99) -> ConfidenceInterval:
    """Student-t confidence interval of the mean of ``values``.

    A single sample yields a degenerate zero-width interval flagged by
    ``samples == 1`` (callers requiring convergence must demand more).
    """
    if not (0.0 < confidence < 1.0):
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    if n == 0:
        raise ConfigurationError("cannot build a confidence interval from no samples")
    mean = sum(values) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0,
                                  confidence=confidence, samples=1)
    var = sum((x - mean) ** 2 for x in values) / (n - 1)
    t = t_quantile(0.5 + confidence / 2.0, n - 1)
    return ConfidenceInterval(
        mean=mean,
        half_width=t * math.sqrt(var / n),
        confidence=confidence,
        samples=n,
    )


def validate_stopping_rule(confidence: float, target: float,
                           min_samples: int, max_samples: int) -> None:
    """Reject a stopping rule no run could satisfy, naming the field.

    Raises:
        ConfigurationError: ``confidence`` or ``target`` outside (0, 1),
            ``min_samples`` below 2, or ``max_samples`` below
            ``min_samples``.
    """
    if not (0.0 < confidence < 1.0):
        raise ConfigurationError(
            f"confidence must be in (0, 1), got {confidence}")
    if not (0.0 < target < 1.0):
        raise ConfigurationError(f"target must be in (0, 1), got {target}")
    if min_samples < 2:
        raise ConfigurationError(f"min_samples must be >= 2, got {min_samples}")
    if max_samples < min_samples:
        raise ConfigurationError(
            f"max_samples must be >= min_samples ({min_samples}), "
            f"got {max_samples}")


class SequentialEstimator:
    """The paper's stopping rule as an accumulator.

    Feed trial outcomes with :meth:`add`; :meth:`converged` reports whether
    the ``confidence`` interval is within ``±target`` of the mean (after a
    minimum number of samples, so early lucky streaks don't stop the run).

    Args:
        confidence: Interval confidence level (paper: 0.99).
        target: Relative half-width target (paper: 0.05).
        min_samples: Samples required before convergence may be declared.
        max_samples: Hard budget; beyond it
            :func:`~repro.workload.trials.paired_trials` raises
            :class:`~repro.errors.SampleBudgetExceededError`.
    """

    def __init__(
        self,
        confidence: float = 0.99,
        target: float = 0.05,
        min_samples: int = 30,
        max_samples: int = 100_000,
    ) -> None:
        validate_stopping_rule(confidence, target, min_samples, max_samples)
        self.confidence = confidence
        self.target = target
        self.min_samples = min_samples
        self.max_samples = max_samples
        self._values: List[float] = []

    def add(self, value: float) -> None:
        """Record one trial outcome."""
        self._values.append(float(value))

    @property
    def count(self) -> int:
        """Number of recorded trials."""
        return len(self._values)

    @property
    def values(self) -> Sequence[float]:
        """The recorded trial outcomes (read-only view)."""
        return tuple(self._values)

    def interval(self) -> ConfidenceInterval:
        """Current confidence interval."""
        return confidence_interval(self._values, self.confidence)

    def converged(self) -> bool:
        """Whether the paper's stopping criterion holds."""
        if self.count < self.min_samples:
            return False
        return self.interval().relative_half_width <= self.target

    def projected_samples(self) -> int:
        """Projected total samples needed to meet the stopping rule.

        The half-width shrinks roughly as ``1/sqrt(k)``, so from the current
        relative half-width ``r`` the projected requirement is
        ``ceil(count * (r / target)^2)``, clamped to
        ``[min_samples, max_samples]``.  Adaptive batching uses this to size
        the next submission wave instead of overshooting convergence by a
        fixed batch; the projection is a *hint* (the stopping rule itself is
        still checked per folded trial), so a noisy early estimate costs at
        most some extra submitted trials, never correctness.
        """
        if self.count < 2:
            return self.min_samples
        ratio = self.interval().relative_half_width / self.target
        if not math.isfinite(ratio):  # zero mean with spread: no projection
            return self.max_samples
        projected = math.ceil(self.count * ratio * ratio)
        return max(self.min_samples, min(self.max_samples, projected))
