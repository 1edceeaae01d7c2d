"""Tests for the experiment harness (config, trials, figure drivers)."""

import pytest

from chaos_exec import noise_spec
from repro.errors import ConfigurationError, SampleBudgetExceededError
from repro.exec.backends import SerialBackend
from repro.exec.spec import TrialSpec
from repro.workload.config import PaperEnvironment
from repro.workload.experiments import (
    DYNAMIC_25,
    DYNAMIC_3,
    FLOODING,
    MO_CDS,
    STATIC_25,
    STATIC_3,
    run_fig6,
    run_fig7,
    run_fig8,
    run_flooding_comparison,
)
from repro.workload.trials import paired_trials

TINY = PaperEnvironment(
    ns=(15, 25), degrees=(6.0,), min_samples=6, max_samples=6, target=0.9,
    seed=99,
)


class TestPaperEnvironment:
    def test_paper_defaults(self):
        env = PaperEnvironment.paper()
        assert env.ns == (20, 40, 60, 80, 100)
        assert env.degrees == (6.0, 18.0)
        assert env.confidence == 0.99 and env.target == 0.05

    def test_quick_bounds_trials(self):
        env = PaperEnvironment.quick()
        assert env.min_samples == env.max_samples

    def test_scaled(self):
        env = PaperEnvironment.paper().scaled(ns=(10,), seed=1)
        assert env.ns == (10,) and env.seed == 1
        assert env.degrees == (6.0, 18.0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(ns=()), dict(ns=(1,)), dict(degrees=()), dict(degrees=(0.0,))],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            PaperEnvironment(**kwargs)


#: A uniform-draw trial spec (the chaos trial without injections).
UNIFORM = TrialSpec.create("chaos_exec:make_chaos_trial",
                           marker_dir="/nonexistent-unused")


class _NeverRuns(SerialBackend):
    """A backend that fails the test if any trial reaches it."""

    def run_wave(self, spec, start_index, seeds):
        raise AssertionError("a trial ran before validation")


class _CountingBackend(SerialBackend):
    """The serial backend, counting every trial it executes."""

    def __init__(self):
        self.ran = 0

    def run_wave(self, spec, start_index, seeds):
        self.ran += len(seeds)
        return super().run_wave(spec, start_index, seeds)


class TestPairedTrials:
    def test_converges_on_constant_metrics(self):
        outcome = paired_trials(
            spec=noise_spec(0.0, a=5.0, b=7.0),
            min_samples=4, max_samples=100, rng=0,
        )
        assert outcome.converged
        assert outcome.trials == 4
        assert outcome.estimates["a"].mean == 5.0
        assert outcome.estimates["b"].mean == 7.0

    def test_budget_exhaustion_nonstrict(self):
        outcome = paired_trials(spec=noise_spec(100.0, x=0.5),
                                min_samples=3, max_samples=5, rng=1)
        assert not outcome.converged
        assert outcome.trials == 5

    def test_budget_exhaustion_strict_raises(self):
        with pytest.raises(SampleBudgetExceededError):
            paired_trials(spec=noise_spec(100.0, x=0.5), min_samples=3,
                          max_samples=5, rng=1, strict=True)

    def test_reproducible(self):
        a = paired_trials(spec=UNIFORM, min_samples=5, max_samples=5, rng=3)
        b = paired_trials(spec=UNIFORM, min_samples=5, max_samples=5, rng=3)
        assert a.estimates["m"].mean == b.estimates["m"].mean

    @pytest.mark.parametrize("field,kwargs", [
        ("min_samples", dict(min_samples=0, max_samples=0)),
        ("min_samples", dict(min_samples=1, max_samples=5)),
        ("max_samples", dict(min_samples=5, max_samples=4)),
        ("confidence", dict(confidence=1.0)),
        ("confidence", dict(confidence=0.0)),
        ("target", dict(target=0.0)),
        ("target", dict(target=1.5)),
    ])
    @pytest.mark.parametrize("strict", [False, True])
    def test_stopping_rule_validated_before_any_trial(self, field, kwargs,
                                                      strict):
        with pytest.raises(ConfigurationError, match=field):
            paired_trials(spec=UNIFORM, rng=0, strict=strict,
                          backend=_NeverRuns(), **kwargs)


class TestParallelTrials:
    def test_parallel_deterministic_for_fixed_seed(self):
        a = paired_trials(spec=UNIFORM, min_samples=8, max_samples=8, rng=3,
                          parallel=2)
        b = paired_trials(spec=UNIFORM, min_samples=8, max_samples=8, rng=3,
                          parallel=2)
        assert a.estimates["m"] == b.estimates["m"]

    def test_worker_count_does_not_change_estimates(self):
        # Trial i draws from child stream i regardless of wave partition,
        # and results fold in trial order — so for a fixed trial count the
        # estimates are identical across worker counts.
        kw = dict(spec=noise_spec(1.0, v=0.0, w=1.0), min_samples=8,
                  max_samples=8, rng=3, backend="serial")
        a = paired_trials(parallel=2, **kw)
        b = paired_trials(parallel=8, **kw)
        assert a.trials == b.trials == 8
        assert a.estimates["v"] == b.estimates["v"]
        assert a.estimates["w"] == b.estimates["w"]

    def test_parallel_one_is_the_serial_path(self):
        a = paired_trials(spec=UNIFORM, min_samples=6, max_samples=6, rng=5)
        b = paired_trials(spec=UNIFORM, min_samples=6, max_samples=6, rng=5,
                          backend="serial")
        assert a.estimates == b.estimates

    def test_batches_respect_max_samples(self):
        counting = _CountingBackend()
        outcome = paired_trials(spec=noise_spec(100.0, x=0.0),
                                min_samples=3, max_samples=5, rng=1,
                                parallel=4, backend=counting)
        assert outcome.trials == 5
        assert counting.ran == 5
        assert not outcome.converged

    def test_strict_raises_in_parallel_mode(self):
        with pytest.raises(SampleBudgetExceededError):
            paired_trials(spec=noise_spec(100.0, x=0.5), min_samples=3,
                          max_samples=6, rng=1, parallel=2, strict=True)

    def test_invalid_parallel_rejected(self):
        with pytest.raises(ValueError):
            paired_trials(spec=UNIFORM, parallel=0)


class TestFigureDrivers:
    def test_fig6_labels_and_shape(self):
        tables = run_fig6(TINY)
        table = tables[6.0]
        labels = {s.label for s in table.series}
        assert labels == {STATIC_25, STATIC_3, MO_CDS}
        for s in table.series:
            assert s.xs() == [15.0, 25.0]
            # CDS sizes grow with n.
            assert s.means()[0] < s.means()[1]

    def test_fig6_static_close_to_mo(self):
        table = run_fig6(TINY)[6.0]
        static = table.get(STATIC_25).as_dict()
        mo = table.get(MO_CDS).as_dict()
        for x in static:
            assert static[x] <= mo[x] + 1.0  # paired trials: close, static <=

    def test_fig7_dynamic_below_mo(self):
        table = run_fig7(TINY)[6.0]
        dyn = table.get(DYNAMIC_25).as_dict()
        mo = table.get(MO_CDS).as_dict()
        for x in dyn:
            assert dyn[x] <= mo[x]

    def test_fig8_dynamic_below_static(self):
        table = run_fig8(TINY)[6.0]
        dyn = table.get(DYNAMIC_25).as_dict()
        static = table.get(STATIC_25).as_dict()
        for x in dyn:
            assert dyn[x] <= static[x] + 0.5

    def test_fig8_policies_close(self):
        table = run_fig8(TINY)[6.0]
        d25 = table.get(DYNAMIC_25).as_dict()
        d3 = table.get(DYNAMIC_3).as_dict()
        for x in d25:
            assert d25[x] == pytest.approx(d3[x], rel=0.25, abs=2.0)

    def test_flooding_dominates_everything(self):
        tables = run_flooding_comparison(TINY)
        table = tables[6.0]
        flood = table.get(FLOODING).as_dict()
        static = table.get(STATIC_25).as_dict()
        for x in flood:
            # Blind flooding forwards everywhere: n nodes.
            assert flood[x] == pytest.approx(x)
            assert static[x] < flood[x]

    def test_multiple_degrees_produce_multiple_tables(self):
        env = TINY.scaled(degrees=(6.0, 10.0))
        tables = run_fig6(env)
        assert set(tables) == {6.0, 10.0}

    def test_reproducibility(self):
        a = run_fig6(TINY)[6.0].get(STATIC_25).means()
        b = run_fig6(TINY)[6.0].get(STATIC_25).means()
        assert a == b
