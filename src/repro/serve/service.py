"""The serve engine: admission, execution, deadlines, recovery, drain.

:class:`ServeService` is the transport-free core of the daemon (the unix
socket in :mod:`repro.serve.server` is a thin shell over it, and the
tests drive it directly).  The robustness rules, in one place:

* **Admission is explicit backpressure.**  The queue is bounded twice:
  normal requests shed with a retryable ``overloaded`` error once depth
  reaches the *watermark*, urgent ones only at the hard *queue limit* —
  load shedding that keeps headroom for operator traffic instead of
  buffering unboundedly and falling over later.
* **Acceptance is durable.**  The request manifest is written atomically
  *before* ``submit`` returns; from that moment a SIGKILLed daemon owes
  the request and the restart recovery scan will re-queue and finish it
  (bit-identically, by resuming its journal's contiguous prefix).
* **Execution is supervised per request.**  Every request gets a fresh
  :class:`~repro.exec.supervise.SupervisedBackend` over the *shared* warm
  pool (``owns_inner=False``): crashes/hangs retry with backoff, the
  broken pool is abandoned and rebuilt lazily, and execution degrades
  process → serial — while the supervision event stream lands on the
  request for clients to inspect.
* **Deadlines are enforced, not advisory.**  The executor joins the
  runner thread with the request deadline; on expiry the request fails
  first (first-wins), the shared pool is abandoned to unwedge a stuck
  chunk, and the late runner's eventual completion loses the race.  A
  failed-by-deadline request is ``retryable``: resubmitting the same id
  reuses its journaled prefix.
* **Journal failures are classified.**  A full disk (``ENOSPC`` and kin)
  fails the request with retryable ``journal-unavailable`` — the daemon
  stays up and keeps serving what it still can.
* **Drain is graceful.**  ``drain()`` stops admission (``draining``
  rejections) and waits for accepted work; whatever the grace period
  does not cover stays journaled for the next start to recover.
"""

from __future__ import annotations

import errno
import threading
import uuid
from collections import deque
from pathlib import Path
from typing import Deque, Dict, Mapping, Optional

from repro.errors import (
    ChunkRetryExhaustedError,
    ConfigurationError,
    JournalError,
)
from repro.exec.backends import ExecutionBackend, as_backend
from repro.exec.journal import RunJournal
from repro.exec.supervise import SupervisedBackend
from repro.serve import protocol
from repro.serve.lifecycle import (
    ERROR_FILE,
    JOURNAL_FILE,
    MANIFEST_FILE,
    RESULT_FILE,
    DONE,
    RequestAborted,
    ServeRequest,
    StreamingJournal,
    write_json_atomic,
)
from repro.serve.protocol import ServeError
from repro.serve.recovery import max_seq, scan_incomplete
from repro.workload.serve_adapters import RunContext, get_adapter

#: Errnos that mean "the journal disk is the problem, not the request".
_JOURNAL_ERRNOS = frozenset({
    errno.ENOSPC, errno.EROFS, errno.EDQUOT, errno.EACCES, errno.EPERM,
})


class ServeService:
    """The experiment service core; see the module docstring.

    Args:
        root: Durable state directory (request manifests + journals).
        backend: Warm-pool backend name or instance shared across
            requests; requests supervise it without owning it.
        workers: Worker count for a name-specified backend.
        queue_limit: Hard admission bound (urgent requests shed here).
        watermark: Depth at which normal requests start shedding
            (default: half the limit, at least 1).
        retries: Supervised retry budget per wave chunk.
        chunk_timeout: Supervised per-chunk deadline in seconds.
        default_deadline: Deadline applied to requests that specify none
            (``None``: unbounded).
        abandon_grace: Seconds to wait for a runner after abandoning the
            pool on deadline expiry before leaking the thread.
    """

    def __init__(
        self,
        root,
        *,
        backend="serial",
        workers: int = 1,
        queue_limit: int = 16,
        watermark: Optional[int] = None,
        retries: int = 2,
        chunk_timeout: Optional[float] = None,
        default_deadline: Optional[float] = None,
        abandon_grace: float = 5.0,
    ) -> None:
        if queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self.root = Path(root)
        self.requests_dir = self.root / "requests"
        self.queue_limit = queue_limit
        self.watermark = (max(1, queue_limit // 2) if watermark is None
                          else watermark)
        if not (1 <= self.watermark <= queue_limit):
            raise ConfigurationError(
                f"watermark must be in [1, queue_limit], got "
                f"{self.watermark}"
            )
        self.workers = workers
        self.retries = retries
        self.chunk_timeout = chunk_timeout
        self.default_deadline = default_deadline
        self.abandon_grace = abandon_grace
        self._pool: ExecutionBackend = as_backend(backend, workers)
        self._lock = threading.Condition()
        self._queue: Deque[ServeRequest] = deque()
        self._requests: Dict[str, ServeRequest] = {}
        self._draining = False
        self._stopped = False
        self._executor: Optional[threading.Thread] = None
        self._running: Optional[ServeRequest] = None
        self._seq = 0
        self.stats = {"accepted": 0, "recovered": 0, "completed": 0,
                      "failed": 0, "cancelled": 0, "shed": 0}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> int:
        """Recover owed requests, then start the executor.

        Returns:
            Number of requests recovered from a previous incarnation.
        """
        self.requests_dir.mkdir(parents=True, exist_ok=True)
        self._seq = max_seq(self.requests_dir)
        recovered = 0
        for manifest in scan_incomplete(self.requests_dir):
            request = ServeRequest(
                request_id=manifest["id"],
                experiment=manifest["experiment"],
                params=manifest["params"],
                seq=int(manifest.get("seq", 0)),
                directory=self.requests_dir / manifest["id"],
                deadline=manifest.get("deadline"),
                urgent=bool(manifest.get("urgent", False)),
                recovered=True,
            )
            with self._lock:
                self._requests[request.id] = request
                self._queue.append(request)
            recovered += 1
        self.stats["recovered"] = recovered
        self._executor = threading.Thread(
            target=self._executor_loop, name="repro-serve-executor",
            daemon=True,
        )
        self._executor.start()
        return recovered

    def stop(self) -> None:
        """Stop the executor (whatever is queued stays journaled)."""
        with self._lock:
            self._stopped = True
            self._lock.notify_all()
        if self._executor is not None:
            self._executor.join(timeout=30.0)

    def drain(self, grace: Optional[float] = None) -> bool:
        """Stop admission and wait up to ``grace`` for accepted work.

        Returns:
            ``True`` if everything accepted finished inside the grace
            period; ``False`` means leftovers stay journaled for the next
            start to recover.
        """
        with self._lock:
            self._draining = True
            self._lock.notify_all()

        def quiesced() -> bool:
            with self._lock:
                return not self._queue and self._running is None

        deadline_event = threading.Event()
        waited = 0.0
        step = 0.05
        while not quiesced():
            if grace is not None and waited >= grace:
                return False
            deadline_event.wait(step)
            waited += step
        return True

    # -- admission ---------------------------------------------------------

    def submit(self, payload: Mapping) -> ServeRequest:
        """Admit one request (the ``submit`` op): validate, journal, queue.

        Raises:
            ServeError: ``draining``/``overloaded`` backpressure,
                ``unknown-experiment``/``bad-param`` validation,
                ``bad-request`` id conflicts, ``journal-unavailable``
                when the manifest cannot be made durable.
        """
        experiment = payload["experiment"]
        urgent = bool(payload.get("urgent", False))
        deadline = payload.get("deadline", self.default_deadline)
        adapter = get_adapter(experiment)
        params = adapter.validate(payload.get("params", {}))
        request_id = payload.get("id") or uuid.uuid4().hex[:12]

        with self._lock:
            self._check_admission(request_id, urgent)
            self._seq += 1
            seq = self._seq
        request = ServeRequest(
            request_id=request_id, experiment=experiment, params=params,
            seq=seq, directory=self.requests_dir / request_id,
            deadline=deadline, urgent=urgent,
        )
        self._prepare_directory(request)
        with self._lock:
            try:
                self._check_admission(request_id, urgent)
            except ServeError:
                # Lost a race (drain/burst) after the manifest landed:
                # withdraw it so recovery cannot resurrect an unaccepted
                # request, then reject as usual.
                (request.directory / MANIFEST_FILE).unlink(missing_ok=True)
                raise
            self._requests[request_id] = request
            self._queue.append(request)
            self.stats["accepted"] += 1
            self._lock.notify_all()
        return request

    def _check_admission(self, request_id: str, urgent: bool) -> None:
        """Backpressure + identity checks; caller holds the lock."""
        if self._stopped or self._draining:
            raise ServeError(protocol.DRAINING,
                             "service is draining; resubmit elsewhere/later")
        active = self._requests.get(request_id)
        if active is not None and not active.terminal:
            raise ServeError(
                protocol.BAD_REQUEST,
                f"request id {request_id!r} is already "
                f"{active.state}; ids are reusable only after a "
                f"terminal state", retryable=False,
            )
        depth = len(self._queue)
        if depth >= self.queue_limit:
            self.stats["shed"] += 1
            raise ServeError(
                protocol.OVERLOADED,
                f"queue full ({depth}/{self.queue_limit}); retry with "
                f"backoff",
            )
        if not urgent and depth >= self.watermark:
            self.stats["shed"] += 1
            raise ServeError(
                protocol.OVERLOADED,
                f"queue past watermark ({depth}/{self.watermark}); "
                f"shedding normal traffic (urgent bypasses up to "
                f"{self.queue_limit})",
            )

    def _prepare_directory(self, request: ServeRequest) -> None:
        """Materialise the request dir + manifest (atomically, durably).

        A resubmission of a terminal id with the same run key keeps the
        journal — the retry resumes the previous attempt's prefix
        bit-identically; a different run key under a reused id is
        refused (the journal would lie about what it holds).
        """
        directory = request.directory
        try:
            directory.mkdir(parents=True, exist_ok=True)
            manifest_path = directory / MANIFEST_FILE
            from repro.serve.recovery import load_manifest

            existing = load_manifest(manifest_path)
            if existing is not None and (
                existing.get("experiment") != request.experiment
                or existing.get("params") != request.params
            ):
                raise ServeError(
                    protocol.BAD_REQUEST,
                    f"request id {request.id!r} was previously used for a "
                    f"different run; pick a fresh id", retryable=False,
                )
            # A retry of a terminal request: clear the old verdict so the
            # directory reads as owed work again.
            (directory / RESULT_FILE).unlink(missing_ok=True)
            (directory / ERROR_FILE).unlink(missing_ok=True)
            write_json_atomic(manifest_path, request.manifest())
        except OSError as exc:
            raise ServeError(
                protocol.JOURNAL_UNAVAILABLE,
                f"cannot persist request manifest: {exc}",
            ) from exc

    # -- lookup / cancel / health -----------------------------------------

    def get(self, request_id: str) -> ServeRequest:
        """Resolve an id or raise structured ``not-found``."""
        with self._lock:
            request = self._requests.get(request_id)
        if request is None:
            raise ServeError(protocol.NOT_FOUND,
                             f"no request {request_id!r}", retryable=False)
        return request

    def cancel(self, request_id: str) -> ServeRequest:
        """Cancel a queued or running request (terminal ones are no-ops).

        A running request is finished first (first-wins) and its pool
        abandoned so a wave in flight fails fast; the runner observes the
        terminal state at the next fold and stops.
        """
        request = self.get(request_id)
        if request.cancel_terminal():
            self.stats["cancelled"] += 1
            self._write_terminal(request)
            with self._lock:
                was_running = self._running is request
            if was_running:
                self._pool.abandon()
        return request

    def health(self) -> dict:
        """The ``health`` op: liveness, readiness and load counters."""
        with self._lock:
            depth = len(self._queue)
            running = self._running.id if self._running else None
            draining = self._draining or self._stopped
        return {
            "type": "health",
            "healthz": "ok",
            "readyz": (not draining) and depth < self.watermark,
            "draining": draining,
            "queue_depth": depth,
            "watermark": self.watermark,
            "queue_limit": self.queue_limit,
            "running": running,
            "stats": dict(self.stats),
        }

    # -- execution ---------------------------------------------------------

    def _executor_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._stopped:
                    self._lock.wait(0.5)
                if self._stopped:
                    return
                request = self._queue.popleft()
                if request.terminal:  # cancelled while queued
                    self._running = None
                    continue
                self._running = request
            try:
                self._run_request(request)
            finally:
                with self._lock:
                    self._running = None
                    self._lock.notify_all()

    def _run_request(self, request: ServeRequest) -> None:
        if not request.begin():
            return
        runner = threading.Thread(
            target=self._runner, args=(request,), daemon=True,
            name=f"repro-serve-run-{request.id}",
        )
        runner.start()
        runner.join(request.deadline)
        if runner.is_alive():
            # Deadline expired with the runner still going: the request
            # fails NOW (first-wins — a late completion loses), the pool
            # is abandoned to unwedge a stuck chunk, and the journaled
            # prefix stays for a retry to resume.
            if request.fail(
                protocol.DEADLINE,
                f"request exceeded its {request.deadline:g}s deadline "
                f"(journaled progress is kept; resubmit the same id to "
                f"resume)", retryable=True,
            ):
                self.stats["failed"] += 1
                self._write_terminal(request)
            self._pool.abandon()
            runner.join(self.abandon_grace)

    def _runner(self, request: ServeRequest) -> None:
        journal = None
        supervised = SupervisedBackend(
            self._pool, owns_inner=False, retries=self.retries,
            chunk_timeout=self.chunk_timeout, on_event=request.add_event,
        )
        try:
            journal = self._open_journal(request)
            streaming = StreamingJournal(
                journal, on_fold=request.on_fold,
                should_abort=request.abort_requested,
            )
            adapter = get_adapter(request.experiment)
            result = adapter.run(request.params, RunContext(
                backend=supervised, parallel=self.workers,
                journal=streaming,
            ))
        except RequestAborted:
            return  # deadline/cancel already finished the request
        except ServeError as exc:
            self._fail(request, exc.code, str(exc),
                       retryable=exc.retryable)
        except ChunkRetryExhaustedError as exc:
            self._fail(request, protocol.EXECUTION,
                       f"execution kept failing ({exc.failure}) after "
                       f"{exc.attempts} attempts: {exc.cause!r}",
                       retryable=True)
        except JournalError as exc:
            self._fail(request, protocol.JOURNAL_UNAVAILABLE, str(exc),
                       retryable=True)
        except OSError as exc:
            retryable = exc.errno in _JOURNAL_ERRNOS
            code = (protocol.JOURNAL_UNAVAILABLE if retryable
                    else protocol.INTERNAL)
            self._fail(request, code,
                       f"{type(exc).__name__}: {exc}", retryable=retryable)
        except Exception as exc:  # noqa: BLE001 - the no-traceback contract
            self._fail(request, protocol.INTERNAL,
                       f"{type(exc).__name__}: {exc}", retryable=False)
        else:
            if request.complete(result):
                self.stats["completed"] += 1
                self._write_terminal(request)
        finally:
            supervised.close()
            if journal is not None:
                journal.close()

    def _fail(self, request: ServeRequest, code: str, message: str, *,
              retryable: bool) -> None:
        if request.fail(code, message, retryable=retryable):
            self.stats["failed"] += 1
            self._write_terminal(request)

    def _open_journal(self, request: ServeRequest) -> RunJournal:
        """Open (resuming) the request journal; torn journals start over.

        A journal whose header was torn by a crash cannot prove its run
        key, so its prefix is worthless — deleting it and starting fresh
        is still bit-identical (the prefix was empty as far as anyone can
        trust).  A *locked* journal is a real double-writer bug and is
        re-raised.
        """
        path = request.directory / JOURNAL_FILE
        try:
            return RunJournal.open(path, request.run_key,
                                   resume=path.exists())
        except JournalError as exc:
            if "writer" in str(exc):
                raise
            path.unlink(missing_ok=True)
            return RunJournal.open(path, request.run_key, resume=False)

    def _write_terminal(self, request: ServeRequest) -> None:
        """Persist the terminal verdict (atomic; failures downgrade).

        If the verdict itself cannot be written (disk full), the
        in-memory state still serves connected clients, and the next
        daemon start simply re-runs the request — bit-identical by the
        journal-resume contract, so the worst case is wasted work, never
        a wrong or lost answer.
        """
        if request.state == DONE:
            path = request.directory / RESULT_FILE
            payload = {"id": request.id, "result": request.result,
                       "events": request.event_summary()}
        else:
            path = request.directory / ERROR_FILE
            payload = {"id": request.id, "error": request.error,
                       "events": request.event_summary()}
        try:
            write_json_atomic(path, payload)
        except OSError:
            pass
