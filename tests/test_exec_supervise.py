"""Tests for the supervised execution layer (retry, timeout, degrade)."""

import errno
import os
from concurrent.futures import BrokenExecutor

import pytest

from chaos_exec import make_chaos_trial
from repro.errors import ChunkRetryExhaustedError, ConfigurationError
from repro.exec.backends import ExecutionBackend, SerialBackend
from repro.exec.spec import TrialSpec
from repro.exec.supervise import (
    DEGRADE_ORDER,
    FAILURE_KINDS,
    ExecEvent,
    SupervisedBackend,
    _ChunkTimeout,
    classify_failure,
)
from repro.workload.trials import paired_trials


def make_always_fail(*, message: str = "boom"):
    """Spec factory: a trial that fails every single attempt."""

    def trial(index, gen):
        raise RuntimeError(f"{message} (trial {index})")

    return trial


def make_misconfigured(**_kwargs):
    """Spec factory: a trial that raises ConfigurationError."""

    def trial(index, gen):
        raise ConfigurationError("bad trial configuration")

    return trial


def chaos_spec(marker_dir, **kwargs):
    """A chaos trial spec rooted at ``marker_dir``."""
    return TrialSpec.create(
        "chaos_exec:make_chaos_trial", marker_dir=str(marker_dir), **kwargs
    )


def reference_outcome(spec_kwargs, marker_dir, *, trials=8, seed=11):
    """The undisturbed serial outcome for a chaos spec (no injections)."""
    spec = chaos_spec(marker_dir, **spec_kwargs)
    return paired_trials(spec=spec, min_samples=trials, max_samples=trials,
                         rng=seed, backend="serial")


class TestValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisedBackend(retries=-1)

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisedBackend(chunk_timeout=0.0)

    def test_degrade_after_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisedBackend(degrade_after=0)

    def test_default_inner_is_serial(self):
        assert SupervisedBackend().inner.name == "serial"

    def test_name_resolves_through_as_backend(self):
        sup = SupervisedBackend("process", workers=2)
        assert sup.inner.name == "process"
        sup.close()


class TestClassifyFailure:
    def test_timeout_marker_is_timeout(self):
        assert classify_failure(_ChunkTimeout("slow")) == "timeout"

    def test_broken_executor_is_crash(self):
        assert classify_failure(BrokenExecutor("worker died")) == "crash"

    def test_anything_else_is_transient(self):
        assert classify_failure(ValueError("nope")) == "transient"

    def test_kinds_are_the_published_constants(self):
        assert set(FAILURE_KINDS) == {"crash", "timeout", "transient",
                                      "fatal"}
        assert DEGRADE_ORDER == ("process", "serial")

    def test_memory_error_is_crash(self):
        assert classify_failure(MemoryError()) == "crash"

    def test_broken_pipe_is_crash_not_generic_oserror(self):
        assert classify_failure(BrokenPipeError(errno.EPIPE, "pipe")) == \
            "crash"

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EROFS,
                                      errno.EDQUOT])
    def test_disk_full_errnos_are_fatal(self, code):
        assert classify_failure(OSError(code, os.strerror(code))) == "fatal"

    @pytest.mark.parametrize("code", [errno.EMFILE, errno.ENFILE,
                                      errno.EAGAIN, errno.EINTR])
    def test_resource_blip_errnos_are_transient(self, code):
        assert classify_failure(OSError(code, os.strerror(code))) == \
            "transient"

    def test_unclassified_oserror_is_transient(self):
        assert classify_failure(OSError(errno.EIO, "io")) == "transient"


def make_disk_full(**_kwargs):
    """Spec factory: a trial that hits a full disk every attempt."""

    def trial(index, gen):
        raise OSError(errno.ENOSPC, "No space left on device")

    return trial


class TestFatalFailures:
    def test_fatal_failure_is_raised_without_retry(self):
        spec = TrialSpec.create("test_exec_supervise:make_disk_full")
        events = []
        sup = SupervisedBackend("serial", retries=5, backoff_base=0.001,
                                on_event=events.append)
        with pytest.raises(OSError) as excinfo:
            paired_trials(spec=spec, min_samples=2, max_samples=2,
                          rng=0, backend=sup)
        assert excinfo.value.errno == errno.ENOSPC
        kinds = [e.kind for e in events]
        assert "retry" not in kinds  # surfaced immediately, budget intact
        failures = [e for e in events if e.kind == "chunk-failure"]
        assert failures and failures[0].failure == "fatal"


class TestExecEventSerialisation:
    def test_round_trip_through_dict(self):
        event = ExecEvent(kind="chunk-failure", backend="process",
                          failure="crash", attempt=2, chunk_start=8,
                          chunk_size=4, detail="BrokenExecutor('x')")
        assert ExecEvent.from_dict(event.to_dict()) == event

    def test_round_trip_through_json(self):
        import json

        event = ExecEvent(kind="degrade", backend="thread",
                          detail="thread -> serial")
        payload = json.loads(json.dumps(event.to_dict()))
        assert ExecEvent.from_dict(payload) == event

    def test_from_dict_ignores_unknown_fields(self):
        data = ExecEvent(kind="retry", backend="serial").to_dict()
        data["request_id"] = "r-42"  # serve layer may decorate the stream
        assert ExecEvent.from_dict(data) == \
            ExecEvent(kind="retry", backend="serial")


class TestOwnership:
    class _Closable(ExecutionBackend):
        name = "serial"
        workers = 1

        def __init__(self):
            self.closed = 0
            self.abandoned = 0

        def run_wave(self, job, start_index, seeds):
            return SerialBackend().run_wave(job, start_index, seeds)

        def close(self):
            self.closed += 1

        def abandon(self):
            self.abandoned += 1

    def test_owned_inner_is_closed(self):
        inner = self._Closable()
        SupervisedBackend(inner).close()
        assert inner.closed == 1

    def test_unowned_inner_survives_close(self):
        inner = self._Closable()
        SupervisedBackend(inner, owns_inner=False).close()
        assert inner.closed == 0

    def test_degraded_replacement_is_owned_even_when_inner_was_shared(self):
        shared = _FailingInner("process")
        sup = SupervisedBackend(shared, retries=3, degrade_after=1,
                                backoff_base=0.001, owns_inner=False)
        paired_trials(
            spec=TrialSpec.create("chaos_exec:make_chaos_trial",
                                  marker_dir="/nonexistent-unused"),
            min_samples=2, max_samples=2, rng=0, backend=sup,
        )
        assert sup.inner.name == "serial"
        assert sup._owns_inner is True  # replacement created here
        sup.close()  # must not raise; shared inner untouched


class TestTransientRetry:
    def test_injected_exception_is_retried_and_estimates_match(self, tmp_path):
        chaos_dir = tmp_path / "chaos"
        ref_dir = tmp_path / "ref"
        chaos_dir.mkdir()
        ref_dir.mkdir()
        reference = reference_outcome({}, ref_dir)

        events = []
        sup = SupervisedBackend("serial", retries=2, backoff_base=0.001,
                                on_event=events.append)
        outcome = paired_trials(
            spec=chaos_spec(chaos_dir, raise_indices=(3,)),
            min_samples=8, max_samples=8, rng=11, backend=sup,
        )
        assert outcome.estimates == reference.estimates
        assert outcome.trials == reference.trials
        kinds = [e.kind for e in events]
        assert "chunk-failure" in kinds
        assert "retry" in kinds
        failures = [e for e in events if e.kind == "chunk-failure"]
        assert all(e.failure == "transient" for e in failures)

    def test_events_collected_and_summarised(self, tmp_path):
        sup = SupervisedBackend("serial", retries=2, backoff_base=0.001)
        paired_trials(
            spec=chaos_spec(tmp_path, raise_indices=(0,)),
            min_samples=4, max_samples=4, rng=1, backend=sup,
        )
        summary = sup.event_summary()
        assert summary.get("chunk-failure", 0) >= 1
        assert summary.get("retry", 0) >= 1
        assert all(isinstance(e, ExecEvent) for e in sup.events)


class TestTimeout:
    def test_hung_chunk_is_timed_out_and_retried(self, tmp_path):
        chaos_dir = tmp_path / "chaos"
        ref_dir = tmp_path / "ref"
        chaos_dir.mkdir()
        ref_dir.mkdir()
        reference = reference_outcome({}, ref_dir, trials=6)

        events = []
        sup = SupervisedBackend("serial", retries=2, chunk_timeout=0.25,
                                backoff_base=0.001, on_event=events.append)
        outcome = paired_trials(
            spec=chaos_spec(chaos_dir, sleep_indices=(2,),
                            sleep_seconds=1.5),
            min_samples=6, max_samples=6, rng=11, backend=sup,
        )
        assert outcome.estimates == reference.estimates
        failures = [e for e in events if e.kind == "chunk-failure"]
        assert any(e.failure == "timeout" for e in failures)
        assert any(e.kind == "pool-rebuild" for e in events)


class TestRetryExhausted:
    def test_budget_exhaustion_raises_with_context(self):
        spec = TrialSpec.create("test_exec_supervise:make_always_fail")
        sup = SupervisedBackend("serial", retries=1, backoff_base=0.001)
        with pytest.raises(ChunkRetryExhaustedError) as excinfo:
            paired_trials(spec=spec, min_samples=2, max_samples=2,
                          rng=0, backend=sup)
        err = excinfo.value
        assert err.attempts == 2
        assert err.failure == "transient"
        assert isinstance(err.cause, RuntimeError)
        assert sup.event_summary().get("give-up", 0) == 1

    def test_configuration_error_is_never_retried(self):
        spec = TrialSpec.create("test_exec_supervise:make_misconfigured")
        sup = SupervisedBackend("serial", retries=5, backoff_base=0.001)
        with pytest.raises(ConfigurationError):
            paired_trials(spec=spec, min_samples=2, max_samples=2,
                          rng=0, backend=sup)
        assert sup.event_summary().get("retry", 0) == 0


class _FailingInner(ExecutionBackend):
    """A stand-in pool that always reports a dead worker."""

    def __init__(self, name: str, workers: int = 2) -> None:
        self.name = name
        self.workers = workers
        self.abandoned = 0

    def run_wave(self, job, start_index, seeds):
        raise BrokenExecutor("worker died")

    def abandon(self) -> None:
        self.abandoned += 1


class TestDegradationLadder:
    def test_process_degrades_to_serial_and_recovers(self, tmp_path):
        fake = _FailingInner("process")
        events = []
        sup = SupervisedBackend(fake, retries=3, degrade_after=1,
                                backoff_base=0.001, on_event=events.append)
        outcome = paired_trials(
            spec=chaos_spec(tmp_path), min_samples=4, max_samples=4,
            rng=5, backend=sup,
        )
        assert outcome.trials == 4
        assert fake.abandoned == 1
        degrades = [e for e in events if e.kind == "degrade"]
        assert len(degrades) == 1
        assert (degrades[0].backend, sup.inner.name) == ("process", "serial")
        assert degrades[0].detail == "process -> serial"
        sup.close()

    def test_serial_has_nowhere_to_go(self):
        sup = SupervisedBackend(_FailingInner("serial"), retries=1,
                                degrade_after=1, backoff_base=0.001)
        spec = TrialSpec.create("test_exec_supervise:make_always_fail")
        with pytest.raises(ChunkRetryExhaustedError) as excinfo:
            paired_trials(spec=spec, min_samples=2, max_samples=2,
                          rng=0, backend=sup)
        assert excinfo.value.failure == "crash"
        assert sup.event_summary().get("degrade", 0) == 0


class TestProcessCrashRecovery:
    def test_worker_suicide_is_survived_bit_identically(self, tmp_path):
        chaos_dir = tmp_path / "chaos"
        ref_dir = tmp_path / "ref"
        chaos_dir.mkdir()
        ref_dir.mkdir()
        reference = reference_outcome({}, ref_dir, trials=6)

        events = []
        sup = SupervisedBackend("process", workers=2, retries=2,
                                backoff_base=0.001, on_event=events.append)
        try:
            outcome = paired_trials(
                spec=chaos_spec(chaos_dir, crash_indices=(2,)),
                min_samples=6, max_samples=6, rng=11,
                backend=sup, parallel=2,
            )
        finally:
            sup.close()
        assert outcome.estimates == reference.estimates
        assert outcome.trials == reference.trials
        failures = [e for e in events if e.kind == "chunk-failure"]
        assert any(e.failure == "crash" for e in failures)
        assert any(e.kind == "pool-rebuild" for e in events)
