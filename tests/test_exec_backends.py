"""Tests for the execution backends and the trial-spec plumbing.

The process pool must return what the serial backend returns, bit for
bit, and the worker count must not change an estimate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaos_exec import noise_spec
from repro.errors import ConfigurationError
from repro.exec.backends import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    as_backend,
    shared_backend,
)
from repro.exec.spec import TrialSpec, resolve_cached
from repro.workload.trials import paired_trials

#: A real, importable spec factory (workers must be able to import it).
FIG6_SPEC = TrialSpec.create(
    "repro.workload.experiments:make_figure_trial",
    metrics="fig6", n=20, degree=8.0, width=100.0, height=100.0,
    scenario_root=42,
)


class TestTrialSpec:
    def test_kwargs_are_order_independent(self):
        a = TrialSpec.create("m:f", x=1, y=2)
        b = TrialSpec.create("m:f", y=2, x=1)
        assert a == b
        assert hash(a) == hash(b)

    def test_task_needs_module_and_factory(self):
        with pytest.raises(ConfigurationError):
            TrialSpec.create("no_colon_here")

    def test_resolve_unknown_module_raises(self):
        spec = TrialSpec.create("repro.definitely_missing:factory")
        with pytest.raises(ConfigurationError):
            spec.resolve()

    def test_resolve_unknown_attribute_raises(self):
        spec = TrialSpec.create("repro.workload.experiments:not_a_factory")
        with pytest.raises(ConfigurationError):
            spec.resolve()

    def test_resolve_cached_returns_same_callable(self):
        assert resolve_cached(FIG6_SPEC) is resolve_cached(FIG6_SPEC)

    def test_spec_round_trips_through_pickle(self):
        import pickle

        assert pickle.loads(pickle.dumps(FIG6_SPEC)) == FIG6_SPEC


class TestBackendSelection:
    def test_backend_names(self):
        assert BACKENDS == ("serial", "process")

    def test_none_maps_to_serial_then_process(self):
        assert isinstance(as_backend(None, 1), SerialBackend)
        assert isinstance(as_backend(None, 4), ProcessBackend)

    def test_instances_pass_through(self):
        b = SerialBackend()
        assert as_backend(b, 8) is b

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            as_backend("gpu", 2)
        with pytest.raises(ConfigurationError):
            as_backend("thread", 2)

    def test_shared_pools_are_memoized_per_worker_count(self):
        # No wave runs, so no worker process is ever started.
        a = shared_backend("process", 2)
        b = shared_backend("process", 2)
        c = shared_backend("process", 3)
        assert a is b
        assert a is not c

    def test_shared_serial_is_fresh(self):
        assert shared_backend("serial") is not shared_backend("serial")


class TestProcessBackend:
    def test_closure_cannot_cross_the_boundary(self):
        with pytest.raises(ConfigurationError, match="TrialSpec"):
            paired_trials(
                spec=lambda index, gen: {"m": 1.0},
                min_samples=2, max_samples=2, rng=1,
                backend="process", parallel=2,
            )

    def test_worker_count_does_not_change_estimates(self):
        kw = dict(spec=FIG6_SPEC, min_samples=10, max_samples=10, rng=3)
        reference = paired_trials(backend="process", parallel=2, **kw)
        other = paired_trials(backend="process", parallel=4, **kw)
        assert reference == other
        assert reference.trials == 10

    def test_process_matches_serial_bit_for_bit(self):
        kw = dict(spec=FIG6_SPEC, min_samples=8, max_samples=40, rng=11)
        serial = paired_trials(backend="serial", **kw)
        process = paired_trials(backend="process", parallel=2, **kw)
        default = paired_trials(parallel=2, **kw)  # None -> process
        assert serial == process == default

    def test_isolated_pool_close_is_idempotent(self):
        backend = ProcessBackend(2)
        backend.close()
        backend.close()


class TestAdaptiveStopping:
    @settings(max_examples=25, deadline=None)
    @given(
        min_samples=st.integers(2, 12),
        extra=st.integers(0, 20),
        noise=st.floats(0.0, 5.0),
        workers=st.integers(1, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_budget_and_minimum_are_respected(
        self, min_samples, extra, noise, workers, seed
    ):
        """Adaptive waves never exceed max_samples nor converge early."""
        max_samples = min_samples + extra
        outcome = paired_trials(
            spec=noise_spec(noise, m=10.0), min_samples=min_samples,
            max_samples=max_samples, rng=seed, parallel=workers,
            backend="serial",
        )
        assert outcome.trials <= max_samples
        assert outcome.trials >= min(min_samples, max_samples)
        if outcome.converged:
            assert outcome.trials >= min_samples

    def test_zero_noise_stops_exactly_at_min_samples(self):
        outcome = paired_trials(
            spec=noise_spec(0.0, m=3.0), min_samples=5, max_samples=500,
            rng=0, backend="serial",
        )
        assert outcome.converged
        assert outcome.trials == 5

    def test_strict_budget_exhaustion_raises(self):
        from repro.errors import SampleBudgetExceededError

        with pytest.raises(SampleBudgetExceededError):
            paired_trials(
                spec=noise_spec(100.0, m=0.0), min_samples=3,
                max_samples=6, rng=2, backend="serial", strict=True,
            )


class TestWorkerValidation:
    """Non-positive worker counts are rejected before any pool exists."""

    @pytest.mark.parametrize("workers", [0, -1, -8])
    def test_shared_backend_rejects_non_positive(self, workers):
        with pytest.raises(ConfigurationError):
            shared_backend("process", workers)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_as_backend_rejects_non_positive(self, workers):
        with pytest.raises(ConfigurationError):
            as_backend("serial", workers)

    @pytest.mark.parametrize("workers", [1.5, "2", True, None])
    def test_non_int_workers_rejected(self, workers):
        with pytest.raises(ConfigurationError):
            as_backend(None, workers)

    @pytest.mark.parametrize("cls", [ProcessBackend])
    def test_pooled_constructors_reject_zero(self, cls):
        with pytest.raises(ConfigurationError):
            cls(0)


def _wave(backend, n=3, start=0):
    """One FIG6_SPEC wave of ``n`` trials on ``backend``."""
    from repro.rng import ensure_rng, spawn_seeds

    return backend.run_wave(FIG6_SPEC, start, spawn_seeds(ensure_rng(0), n))


class TestBackendLifecycle:
    """Pools rebuild after shutdown/abandon and close stays idempotent."""

    def test_shared_backend_survives_global_shutdown(self):
        from repro.exec.backends import shutdown_shared_backends

        backend = shared_backend("process", 2)
        first = _wave(backend)
        shutdown_shared_backends()
        # The memoized instance is still usable: _ensure_pool rebuilds.
        again = _wave(backend)
        assert again == first
        backend.close()

    def test_process_pool_rebuilds_after_close(self):
        backend = ProcessBackend(2)
        first = _wave(backend)
        backend.close()
        assert _wave(backend) == first
        backend.close()
        backend.close()  # double close is a no-op

    def test_process_pool_rebuilds_after_abandon(self):
        backend = ProcessBackend(2)
        try:
            first = _wave(backend)
            backend.abandon()
            assert backend._pool is None
            assert _wave(backend) == first
        finally:
            backend.close()
            backend.close()  # double close is a no-op

    def test_abandon_before_first_wave_is_harmless(self):
        backend = ProcessBackend(1)
        backend.abandon()
        assert _wave(backend, n=1)
        backend.close()

    def test_serial_abandon_is_a_no_op(self):
        backend = SerialBackend()
        backend.abandon()
        assert _wave(backend, n=1)

    def test_serial_wave_equals_process_wave(self):
        backend = ProcessBackend(2)
        try:
            assert _wave(SerialBackend(), n=5, start=7) == \
                _wave(backend, n=5, start=7)
        finally:
            backend.close()


class TestCloseRaces:
    """Pool teardown is safe under concurrent close/rebuild callers."""

    def test_concurrent_double_close_shuts_down_once(self):
        """N racing closers: each shuts down at most its own detached pool."""
        import threading

        backend = ProcessBackend(2)
        _wave(backend, n=2)  # materialise the pool
        barrier = threading.Barrier(4)
        errors = []

        def closer():
            try:
                barrier.wait()
                backend.close()
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert backend._pool is None

    def test_close_racing_rebuild_never_wedges_a_wave(self):
        """Waves interleaved with closes always complete (pool rebuilds)."""
        import threading

        backend = ProcessBackend(2)
        expected = _wave(backend, n=2)
        stop = threading.Event()
        errors = []

        def churn_close():
            while not stop.is_set():
                backend.close()

        closer = threading.Thread(target=churn_close)
        closer.start()
        try:
            for _ in range(25):
                # A wave may observe a close after _ensure_pool returned;
                # shutdown() waits for running work, so the wave still
                # finishes and matches the reference bit for bit.
                assert _wave(backend, n=2) == expected
        except Exception as exc:
            errors.append(exc)
        finally:
            stop.set()
            closer.join()
            backend.close()
        assert not errors

    def test_abandon_racing_close_is_safe(self):
        import threading

        backend = ProcessBackend(2)
        _wave(backend, n=2)
        barrier = threading.Barrier(2)
        errors = []

        def run(fn):
            try:
                barrier.wait()
                fn()
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(backend.close,)),
                   threading.Thread(target=run, args=(backend.abandon,))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert backend._pool is None
