"""Service-core robustness: admission, deadlines, recovery — in process.

These tests drive :class:`ServeService` directly (no socket): durable
acceptance, watermark/limit shedding, deadline enforcement, cancel races,
served results and restart recovery bit-identical to the serial oracle,
and journal-disk failure staying a *request* failure rather than a daemon
crash.  The subprocess SIGKILL versions of the same guarantees live in
the slow ``tests/test_chaos_serve.py`` lane.
"""

import errno
import json
import threading
import time

import pytest
from repro.serve import protocol
from repro.serve.lifecycle import (
    ERROR_FILE,
    JOURNAL_FILE,
    MANIFEST_FILE,
    RESULT_FILE,
    write_json_atomic,
)
from repro.serve.protocol import ServeError
from repro.serve.recovery import load_manifest, max_seq, scan_incomplete
from repro.serve.service import ServeService
from repro.workload.serve_adapters import (
    ExperimentAdapter,
    RunContext,
    _ADAPTERS,
    get_adapter,
    register,
)

FAULT_PARAMS = {"losses": [0.0], "n": 10, "trials": 2, "seed": 5}


def oracle(experiment, params):
    """The serial one-shot answer every service path must reproduce."""
    adapter = get_adapter(experiment)
    result = adapter.run(adapter.validate(params),
                         RunContext(backend="serial", parallel=1))
    return json.loads(json.dumps(result, sort_keys=True))


def canonical(result):
    return json.dumps(result, sort_keys=True)


@pytest.fixture
def service(tmp_path):
    svc = ServeService(tmp_path / "state", backend="serial", workers=1)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def blocker():
    """A registered test experiment that blocks until released."""
    release = threading.Event()
    started = threading.Event()

    def run(params, ctx):
        started.set()
        release.wait(30.0)
        return {"blocked": True}

    register(ExperimentAdapter(name="block-test",
                               validate=lambda p: dict(p), run=run))
    try:
        yield type("B", (), {"release": release, "started": started})()
    finally:
        release.set()
        _ADAPTERS.pop("block-test", None)


def submit(service, experiment="faults", params=None, **kw):
    payload = {"op": "submit", "experiment": experiment,
               "params": FAULT_PARAMS if params is None else params}
    payload.update(kw)
    return service.submit(payload)


def wait_file(path, timeout=5.0):
    """The terminal file lands just after the in-memory transition."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)
    return path


class TestHappyPath:
    def test_result_matches_serial_oracle(self, service):
        req = submit(service, "faults", FAULT_PARAMS)
        assert req.wait_terminal(60)
        assert req.state == "done"
        got = json.loads(json.dumps(req.result, sort_keys=True))
        assert got == oracle("faults", FAULT_PARAMS)

    def test_acceptance_is_durable_before_return(self, service):
        req = submit(service, id="keep-1")
        manifest = load_manifest(req.directory / MANIFEST_FILE)
        assert manifest is not None and manifest["id"] == "keep-1"
        assert req.wait_terminal(60)

    def test_terminal_file_written_atomically(self, service):
        req = submit(service, id="done-1")
        assert req.wait_terminal(60)
        on_disk = json.loads(
            wait_file(req.directory / RESULT_FILE).read_text())
        assert canonical(on_disk["result"]) == canonical(req.result)

    def test_progress_streams_fold_by_fold(self, service):
        req = submit(service)
        assert req.wait_terminal(60)
        progress = req.progress()
        assert progress  # at least one journal point streamed
        for point in progress.values():
            assert point["trials"] == FAULT_PARAMS["trials"]
            for est in point["estimates"].values():
                assert est["samples"] == FAULT_PARAMS["trials"]

    def test_supervision_events_land_on_the_request(self, service, tmp_path,
                                                    monkeypatch):
        # A clean run emits nothing; inject one transient failure via the
        # chaos adapter and the retry must show up in the request's
        # bounded event log (and the answer must still be the oracle's).
        monkeypatch.setenv("REPRO_SERVE_CHAOS", "1")
        markers = tmp_path / "markers"
        markers.mkdir()
        params = {"marker_dir": str(markers), "trials": 4, "seed": 11,
                  "raise_indices": [1]}
        req = submit(service, "chaos", params, id="chaos-ev")
        assert req.wait_terminal(60)
        assert req.state == "done"
        summary = req.event_summary()
        assert summary.get("chunk-failure", 0) >= 1
        assert summary.get("retry", 0) >= 1
        clean = dict(params, marker_dir=str(tmp_path / "clean"),
                     raise_indices=[])
        (tmp_path / "clean").mkdir()
        assert canonical(req.result) == canonical(oracle("chaos", clean))


class TestAdmission:
    def test_duplicate_active_id_rejected(self, service, blocker):
        submit(service, "block-test", {}, id="dup")
        assert blocker.started.wait(10)
        with pytest.raises(ServeError) as info:
            submit(service, "block-test", {}, id="dup")
        assert info.value.code == protocol.BAD_REQUEST
        assert not info.value.retryable

    def test_watermark_sheds_normal_but_not_urgent(self, tmp_path, blocker):
        svc = ServeService(tmp_path / "s", backend="serial",
                           queue_limit=4, watermark=2)
        svc.start()
        try:
            submit(svc, "block-test", {}, id="running")
            assert blocker.started.wait(10)
            submit(svc, "block-test", {}, id="q1")
            submit(svc, "block-test", {}, id="q2")
            # depth == watermark: normal traffic sheds, retryably
            with pytest.raises(ServeError) as info:
                submit(svc, "block-test", {}, id="q3")
            assert info.value.code == protocol.OVERLOADED
            assert info.value.retryable
            # urgent bypasses the watermark up to the hard limit
            submit(svc, "block-test", {}, id="u1", urgent=True)
            submit(svc, "block-test", {}, id="u2", urgent=True)
            with pytest.raises(ServeError) as info:
                submit(svc, "block-test", {}, id="u3", urgent=True)
            assert info.value.code == protocol.OVERLOADED
            assert svc.stats["shed"] == 2
            assert svc.health()["readyz"] is False
        finally:
            blocker.release.set()
            svc.stop()

    def test_shed_request_leaves_no_manifest(self, tmp_path, blocker):
        svc = ServeService(tmp_path / "s", backend="serial",
                           queue_limit=2, watermark=1)
        svc.start()
        try:
            submit(svc, "block-test", {}, id="running")
            assert blocker.started.wait(10)
            submit(svc, "block-test", {}, id="q1")
            with pytest.raises(ServeError):
                submit(svc, "block-test", {}, id="shed-me")
            assert not (svc.requests_dir / "shed-me" / MANIFEST_FILE).exists()
        finally:
            blocker.release.set()
            svc.stop()

    def test_draining_rejects_new_submits(self, service):
        service.drain(grace=5)
        with pytest.raises(ServeError) as info:
            submit(service, id="late")
        assert info.value.code == protocol.DRAINING
        assert info.value.retryable
        assert service.health()["readyz"] is False

    def test_reused_id_with_different_params_rejected(self, service):
        req = submit(service, id="re-1")
        assert req.wait_terminal(60)
        other = dict(FAULT_PARAMS, seed=99)
        with pytest.raises(ServeError) as info:
            submit(service, params=other, id="re-1")
        assert info.value.code == protocol.BAD_REQUEST

    def test_retry_of_terminal_id_reuses_journal_bit_identically(
            self, service):
        first = submit(service, id="re-2")
        assert first.wait_terminal(60)
        journal_bytes = (first.directory / JOURNAL_FILE).read_bytes()
        assert journal_bytes
        second = submit(service, id="re-2")
        assert second.wait_terminal(60)
        assert canonical(second.result) == canonical(first.result)
        # the journal was resumed, not rewritten: same folded prefix
        assert (second.directory / JOURNAL_FILE).read_bytes() == \
            journal_bytes


class TestDeadlineAndCancel:
    def test_wedged_request_fails_past_deadline(self, service, blocker):
        req = submit(service, "block-test", {}, id="wedge", deadline=0.3)
        assert req.wait_terminal(30)
        assert req.state == "failed"
        assert req.error["code"] == protocol.DEADLINE
        assert req.error["retryable"] is True
        on_disk = json.loads(
            wait_file(req.directory / ERROR_FILE).read_text())
        assert on_disk["error"]["code"] == protocol.DEADLINE

    def test_late_runner_cannot_overwrite_deadline_failure(
            self, service, blocker):
        req = submit(service, "block-test", {}, id="late-win", deadline=0.2)
        assert req.wait_terminal(30)
        blocker.release.set()  # runner now completes — and must lose
        time.sleep(0.3)
        assert req.state == "failed"
        assert req.error["code"] == protocol.DEADLINE
        assert not (req.directory / RESULT_FILE).exists()

    def test_cancel_queued_request(self, tmp_path, blocker):
        svc = ServeService(tmp_path / "s", backend="serial", queue_limit=8,
                           watermark=8)
        svc.start()
        try:
            submit(svc, "block-test", {}, id="running")
            assert blocker.started.wait(10)
            queued = submit(svc, "block-test", {}, id="queued")
            cancelled = svc.cancel("queued")
            assert cancelled.state == "cancelled"
            assert json.loads(
                (queued.directory / ERROR_FILE).read_text()
            )["error"]["code"] == protocol.CANCELLED
        finally:
            blocker.release.set()
            svc.stop()

    def test_cancel_running_request(self, service, blocker):
        req = submit(service, "block-test", {}, id="run-cancel")
        assert blocker.started.wait(10)
        service.cancel("run-cancel")
        assert req.state == "cancelled"
        blocker.release.set()
        time.sleep(0.2)
        assert req.state == "cancelled"  # late completion lost

    def test_cancel_terminal_is_a_noop(self, service):
        req = submit(service, id="done-cancel")
        assert req.wait_terminal(60)
        again = service.cancel("done-cancel")
        assert again.state == "done"

    def test_unknown_id_is_structured_not_found(self, service):
        with pytest.raises(ServeError) as info:
            service.get("nope")
        assert info.value.code == protocol.NOT_FOUND


class TestRecovery:
    def test_restart_completes_owed_request_bit_identically(self, tmp_path):
        root = tmp_path / "state"
        # A daemon died after acceptance: manifest on disk, no terminal
        # file, a journal holding a partial prefix from the first run.
        first = ServeService(root, backend="serial")
        first.start()
        req = submit(first, id="owed-1")
        assert req.wait_terminal(60)
        reference = canonical(req.result)
        # forge the crash: drop the terminal file, keep manifest+journal
        wait_file(req.directory / RESULT_FILE).unlink()
        first.stop()

        second = ServeService(root, backend="serial")
        recovered = second.start()
        assert recovered == 1
        replayed = second.get("owed-1")
        assert replayed.recovered
        assert replayed.wait_terminal(60)
        assert replayed.state == "done"
        assert canonical(replayed.result) == reference
        second.stop()

    def test_recovered_progress_replays_journal_prefix(self, tmp_path):
        root = tmp_path / "state"
        first = ServeService(root, backend="serial")
        first.start()
        req = submit(first, id="owed-2")
        assert req.wait_terminal(60)
        wait_file(req.directory / RESULT_FILE).unlink()
        first.stop()

        second = ServeService(root, backend="serial")
        second.start()
        replayed = second.get("owed-2")
        assert replayed.wait_terminal(60)
        assert replayed.progress() == req.progress()
        second.stop()

    def test_debris_does_not_break_recovery(self, tmp_path):
        root = tmp_path / "state"
        requests = root / "requests"
        requests.mkdir(parents=True)
        (requests / "not-a-dir").write_text("junk")
        (requests / "torn").mkdir()
        (requests / "torn" / MANIFEST_FILE).write_text('{"format": "re')
        (requests / "foreign").mkdir()
        (requests / "foreign" / MANIFEST_FILE).write_text('{"a": 1}')
        (requests / "renamed").mkdir()
        write_json_atomic(requests / "renamed" / MANIFEST_FILE, {
            "format": "repro-serve-request", "version": 1,
            "id": "other-name", "experiment": "faults", "params": {},
            "seq": 3,
        })
        assert scan_incomplete(requests) == []
        svc = ServeService(root, backend="serial")
        assert svc.start() == 0
        svc.stop()

    def test_seq_counter_resumes_past_recovered_requests(self, tmp_path):
        requests = tmp_path / "requests"
        (requests / "a").mkdir(parents=True)
        write_json_atomic(requests / "a" / MANIFEST_FILE, {
            "format": "repro-serve-request", "version": 1, "id": "a",
            "experiment": "faults", "params": {}, "seq": 7,
        })
        assert max_seq(requests) == 7

    def test_recovery_order_is_admission_order(self, tmp_path):
        requests = tmp_path / "requests"
        for name, seq in (("zz", 1), ("aa", 2)):
            (requests / name).mkdir(parents=True)
            write_json_atomic(requests / name / MANIFEST_FILE, {
                "format": "repro-serve-request", "version": 1, "id": name,
                "experiment": "faults", "params": {}, "seq": seq,
            })
        assert [m["id"] for m in scan_incomplete(requests)] == ["zz", "aa"]


class TestJournalFailures:
    def test_disk_failure_fails_request_not_daemon(self, service,
                                                  monkeypatch):
        def broken_journal(request):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(service, "_open_journal", broken_journal)
        req = submit(service, id="nospace")
        assert req.wait_terminal(30)
        assert req.state == "failed"
        assert req.error["code"] == protocol.JOURNAL_UNAVAILABLE
        assert req.error["retryable"] is True

        # the daemon survived: the next request (journal restored) works
        monkeypatch.undo()
        ok = submit(service, id="after-nospace")
        assert ok.wait_terminal(60)
        assert ok.state == "done"

    def test_torn_journal_header_restarts_the_run(self, service):
        # pre-tear the journal of an id, then submit it: the service must
        # discard the untrustworthy file and still produce the oracle
        # answer (the torn prefix proves nothing, so starting over is
        # bit-identical by definition).
        directory = service.requests_dir / "torn-j"
        directory.mkdir(parents=True)
        (directory / JOURNAL_FILE).write_text('{"format": "repro-jour')
        req = submit(service, id="torn-j")
        assert req.wait_terminal(60)
        assert req.state == "done"
        assert canonical(req.result) == canonical(
            oracle("faults", FAULT_PARAMS))

    def test_unexpected_runner_exception_is_structured(self, service):
        register(ExperimentAdapter(
            name="boom-test", validate=lambda p: dict(p),
            run=lambda p, ctx: 1 / 0,
        ))
        try:
            req = submit(service, "boom-test", {}, id="boom")
            assert req.wait_terminal(30)
            assert req.state == "failed"
            assert req.error["code"] == protocol.INTERNAL
            assert req.error["retryable"] is False
            assert "ZeroDivisionError" in req.error["message"]
        finally:
            _ADAPTERS.pop("boom-test", None)


class TestDrain:
    def test_drain_finishes_accepted_work(self, service):
        reqs = [submit(service, id=f"d{i}") for i in range(3)]
        assert service.drain(grace=120)
        assert all(r.state == "done" for r in reqs)

    def test_drain_grace_expiry_keeps_work_journaled(self, tmp_path,
                                                     blocker):
        svc = ServeService(tmp_path / "s", backend="serial")
        svc.start()
        submit(svc, "block-test", {}, id="stuck")
        assert blocker.started.wait(10)
        assert svc.drain(grace=0.3) is False
        # the unfinished request is still owed on disk
        assert load_manifest(
            svc.requests_dir / "stuck" / MANIFEST_FILE) is not None
        assert [m["id"] for m in scan_incomplete(svc.requests_dir)] == \
            ["stuck"]
        blocker.release.set()
        svc.stop()
