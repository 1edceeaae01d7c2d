"""Tests for confidence intervals and the sequential stopping rule."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.errors import ConfigurationError, SampleBudgetExceededError
from repro.metrics import confidence as confidence_module
from repro.metrics.confidence import (
    ConfidenceInterval,
    SequentialEstimator,
    confidence_interval,
    inverse_normal_cdf,
    t_cdf,
    t_quantile,
)
from repro.workload.config import PaperEnvironment
from repro.workload.experiments import run_fig6


def frozen_t_quantile(p: float, dof: int) -> float:
    """``t_quantile`` as it was before memoisation: always 80 steps."""
    if p == 0.5:
        return 0.0
    z = inverse_normal_cdf(p)
    if z > 0:
        lo, hi = 0.0, max(2.0 * z, 2.0)
        while t_cdf(hi, dof) < p:
            hi *= 2.0
            if hi > 1e12:
                break
    else:
        hi, lo = 0.0, min(2.0 * z, -2.0)
        while t_cdf(lo, dof) > p:
            lo *= 2.0
            if lo < -1e12:
                break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


#: Every small dof, then a geometric ladder up to 100k.
_GRID_DOFS = sorted(set(range(1, 41)) | {
    int(round(40 * 1.25 ** k)) for k in range(1, 36)
} | {100_000})
#: Both tails of five confidence levels (the stopping rule asks for the
#: upper one).
_GRID_PS = sorted({0.5 + c / 2.0 for c in (0.8, 0.9, 0.95, 0.99, 0.999)}
                  | {0.5 - c / 2.0 for c in (0.8, 0.9, 0.95, 0.99, 0.999)})


class TestInverseNormal:
    @pytest.mark.parametrize("p", [0.001, 0.025, 0.3, 0.5, 0.8, 0.975, 0.995])
    def test_against_scipy(self, p):
        assert inverse_normal_cdf(p) == pytest.approx(
            scipy_stats.norm.ppf(p), abs=1e-6
        )

    def test_symmetry(self):
        assert inverse_normal_cdf(0.3) == pytest.approx(-inverse_normal_cdf(0.7))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, p):
        with pytest.raises(ConfigurationError):
            inverse_normal_cdf(p)


class TestTQuantile:
    @pytest.mark.parametrize("dof", [3, 5, 10, 29, 100])
    @pytest.mark.parametrize("p", [0.95, 0.975, 0.995])
    def test_against_scipy(self, p, dof):
        assert t_quantile(p, dof) == pytest.approx(
            scipy_stats.t.ppf(p, dof), rel=2e-3
        )

    def test_converges_to_normal(self):
        assert t_quantile(0.975, 10_000) == pytest.approx(1.959964, abs=1e-3)

    def test_bad_dof(self):
        with pytest.raises(ConfigurationError):
            t_quantile(0.95, 0)


class TestTQuantileMemo:
    def test_bit_identical_to_full_bisection(self):
        assert _GRID_DOFS[-1] >= 100_000
        t_quantile.cache_clear()
        for p in _GRID_PS:
            for dof in _GRID_DOFS:
                assert t_quantile(p, dof) == frozen_t_quantile(p, dof), (p, dof)
                # A cache hit returns the same value.
                assert t_quantile(p, dof) == frozen_t_quantile(p, dof), (p, dof)

    @pytest.mark.parametrize("p,dof", [(0.95, 0), (1.0, 5), (0.0, 5)])
    def test_invalid_input_raises_every_call(self, p, dof):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                t_quantile(p, dof)

    def test_one_miss_per_distinct_dof(self, monkeypatch):
        seen = []

        def spy(p, dof):
            seen.append((p, dof))
            return t_quantile(p, dof)

        monkeypatch.setattr(confidence_module, "t_quantile", spy)
        t_quantile.cache_clear()
        env = PaperEnvironment.paper().scaled(
            ns=(20, 40), degrees=(6.0,), min_samples=4, max_samples=12,
            target=0.2,
        )
        run_fig6(env)
        assert {p for p, _ in seen} == {0.995}
        assert len(seen) > len(set(seen))  # repeats were served from memo
        assert t_quantile.cache_info().misses == len({dof for _, dof in seen})


class TestConfidenceInterval:
    def test_known_sample(self):
        values = [10.0, 12.0, 9.0, 11.0, 13.0]
        ci = confidence_interval(values, confidence=0.95)
        mean = np.mean(values)
        sem = np.std(values, ddof=1) / math.sqrt(len(values))
        expected = scipy_stats.t.ppf(0.975, 4) * sem
        assert ci.mean == pytest.approx(mean)
        assert ci.half_width == pytest.approx(expected, rel=2e-3)
        assert ci.low < mean < ci.high

    def test_single_sample_degenerate(self):
        ci = confidence_interval([5.0])
        assert ci.half_width == 0.0 and ci.samples == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            confidence_interval([])

    def test_bad_confidence(self):
        with pytest.raises(ConfigurationError):
            confidence_interval([1, 2], confidence=1.0)

    def test_relative_half_width(self):
        ci = ConfidenceInterval(mean=10.0, half_width=0.5,
                                confidence=0.99, samples=30)
        assert ci.relative_half_width == 0.05

    def test_relative_half_width_zero_mean(self):
        ci = ConfidenceInterval(mean=0.0, half_width=0.5,
                                confidence=0.99, samples=30)
        assert ci.relative_half_width == math.inf
        ci0 = ConfidenceInterval(mean=0.0, half_width=0.0,
                                 confidence=0.99, samples=30)
        assert ci0.relative_half_width == 0.0


class TestSequentialEstimator:
    def test_converges_on_tight_data(self):
        est = SequentialEstimator(min_samples=5)
        for _ in range(5):
            est.add(100.0)
        assert est.converged()
        ci = est.require_converged()
        assert ci.mean == 100.0

    def test_no_early_convergence(self):
        est = SequentialEstimator(min_samples=30)
        for _ in range(10):
            est.add(1.0)
        assert not est.converged()

    def test_noisy_data_needs_more_samples(self):
        rng = np.random.default_rng(0)
        est = SequentialEstimator(min_samples=5, target=0.05)
        # Extremely noisy relative to the mean.
        for _ in range(5):
            est.add(rng.normal(1.0, 5.0))
        assert not est.converged()

    def test_paper_rule_converges_eventually(self):
        rng = np.random.default_rng(1)
        est = SequentialEstimator(confidence=0.99, target=0.05, min_samples=30)
        while not est.converged():
            est.add(rng.normal(50.0, 10.0))
            assert est.count < 10_000  # sanity guard
        ci = est.interval()
        assert ci.relative_half_width <= 0.05
        assert ci.mean == pytest.approx(50.0, rel=0.06)

    def test_require_converged_raises(self):
        est = SequentialEstimator(min_samples=2, max_samples=3)
        rng = np.random.default_rng(2)
        for _ in range(3):
            est.add(rng.normal(0.1, 50.0))
        with pytest.raises(SampleBudgetExceededError):
            est.require_converged()
        assert est.exhausted()

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            SequentialEstimator(target=0.0)
        with pytest.raises(ConfigurationError):
            SequentialEstimator(min_samples=1)
        with pytest.raises(ConfigurationError):
            SequentialEstimator(min_samples=30, max_samples=10)

    def test_values_view(self):
        est = SequentialEstimator()
        est.add(1.0)
        est.add(2.0)
        assert est.values == (1.0, 2.0)
        assert est.count == 2


class TestProjectedSamples:
    def test_before_two_samples_projects_the_minimum(self):
        est = SequentialEstimator(min_samples=30)
        assert est.projected_samples() == 30
        est.add(1.0)
        assert est.projected_samples() == 30

    def test_converged_estimator_projects_no_extra_work(self):
        est = SequentialEstimator(min_samples=5)
        for _ in range(6):
            est.add(100.0)
        assert est.converged()
        assert est.projected_samples() <= max(est.count, est.min_samples)

    def test_noisy_data_projects_more_than_collected(self):
        rng = np.random.default_rng(0)
        est = SequentialEstimator(min_samples=5, target=0.05)
        for _ in range(5):
            est.add(rng.normal(10.0, 20.0))
        assert not est.converged()
        assert est.projected_samples() > est.count

    def test_projection_is_clamped_to_the_budget(self):
        rng = np.random.default_rng(3)
        est = SequentialEstimator(min_samples=2, max_samples=50, target=0.001)
        est.add(rng.normal(0.0, 100.0))
        est.add(rng.normal(0.0, 100.0))
        assert est.projected_samples() <= 50

    def test_projection_shrinks_as_the_interval_tightens(self):
        rng = np.random.default_rng(4)
        est = SequentialEstimator(min_samples=5, max_samples=100_000)
        for _ in range(5):
            est.add(rng.normal(50.0, 10.0))
        early = est.projected_samples()
        for _ in range(200):
            est.add(rng.normal(50.0, 10.0))
        assert est.projected_samples() <= max(early, est.count)


class TestIncompleteBeta:
    """Direct accuracy checks of the special-function layer."""

    @pytest.mark.parametrize("a,b,x", [
        (0.5, 0.5, 0.3), (2.0, 3.0, 0.5), (5.0, 1.0, 0.9),
        (10.0, 10.0, 0.25), (0.5, 4.0, 0.01),
    ])
    def test_against_scipy(self, a, b, x):
        from scipy.special import betainc as scipy_betainc

        from repro.metrics.confidence import regularized_incomplete_beta

        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            scipy_betainc(a, b, x), abs=1e-10
        )

    def test_boundaries(self):
        from repro.metrics.confidence import regularized_incomplete_beta

        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


class TestTCdf:
    @pytest.mark.parametrize("t,dof", [
        (0.0, 3), (1.5, 3), (-2.0, 7), (2.576, 29), (10.0, 1),
    ])
    def test_against_scipy(self, t, dof):
        from repro.metrics.confidence import t_cdf

        assert t_cdf(t, dof) == pytest.approx(
            scipy_stats.t.cdf(t, dof), abs=1e-10
        )

    def test_symmetry(self):
        from repro.metrics.confidence import t_cdf

        assert t_cdf(1.3, 5) + t_cdf(-1.3, 5) == pytest.approx(1.0)

    def test_bad_dof(self):
        from repro.metrics.confidence import t_cdf

        with pytest.raises(ConfigurationError):
            t_cdf(1.0, 0)

    def test_quantile_cdf_roundtrip(self):
        from repro.metrics.confidence import t_cdf, t_quantile

        for p in (0.7, 0.95, 0.995):
            for dof in (2, 10, 50):
                assert t_cdf(t_quantile(p, dof), dof) == pytest.approx(
                    p, abs=1e-9
                )
