"""Supervised execution: retry, timeout, pool recovery, graceful degrade.

The process backend in :mod:`repro.exec.backends` is *fast* but brittle:
one SIGKILLed worker breaks the whole ``ProcessPoolExecutor``, a trial that
never returns wedges the wave forever, and either failure aborts a run that
may already hold thousands of converged trials.  :class:`SupervisedBackend`
wraps any backend with the preemption-tolerance discipline of a training
stack:

* each wave is split into **chunks** (one per inner worker) and every chunk
  runs under a watchdog with an optional per-chunk timeout;
* failures are **classified** — ``crash`` (a broken executor or dead
  worker: ``BrokenExecutor``, ``BrokenPipeError``, ``MemoryError``),
  ``timeout`` (the chunk overran its deadline), ``fatal`` (an environment
  failure retrying cannot fix, e.g. ``ENOSPC``/``EROFS``) or ``transient``
  (any other exception, including retryable OS errors such as
  ``EMFILE``/``EAGAIN``) — while
  :class:`~repro.errors.ConfigurationError` is never retried, because a
  misconfigured job fails the same way every time, and ``fatal`` failures
  are re-raised immediately for the same reason;
* failed chunks are **retried** with capped exponential backoff plus jitter.
  Retrying is safe because chunks are idempotent: a chunk is a pure function
  of its ``(trial index, seed sequence)`` items, so a re-run returns
  bit-identical metrics and the caller's trial-index-ordered fold never sees
  the difference;
* a ``crash``/``timeout`` **abandons** the inner pool (killing its workers
  where possible) so the next attempt gets a fresh one, and after
  ``degrade_after`` pool-level failures the supervisor **degrades**
  ``process`` → ``serial`` — trading speed for progress without changing a
  single estimate (the backends share one determinism contract);
* every decision is emitted as a structured :class:`ExecEvent` (collected on
  ``.events`` and forwarded to an optional ``on_event`` callback) so the CLI
  and the perf layer can surface what the supervisor had to survive.

A chunk that still fails after the retry budget raises
:class:`~repro.errors.ChunkRetryExhaustedError`: the supervisor degrades
around infrastructure failures, never around a trial that is itself broken.
"""

from __future__ import annotations

import errno
import random
import threading
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChunkRetryExhaustedError, ConfigurationError
from repro.exec.backends import (
    BackendLike,
    ExecutionBackend,
    SerialBackend,
    _chunk,
    as_backend,
)
from repro.exec.spec import TrialSpec

#: Failure classes the supervisor distinguishes.
FAILURE_KINDS = ("crash", "timeout", "transient", "fatal")

#: OS errnos that a retry genuinely can fix: resource-exhaustion blips
#: (file descriptors, fork pressure) and interrupted syscalls.
_TRANSIENT_ERRNOS = frozenset({
    errno.EMFILE, errno.ENFILE, errno.EAGAIN, errno.EINTR,
})

#: OS errnos no retry can fix: a full or read-only filesystem fails the
#: same way on every attempt, so burning the retry budget only delays the
#: inevitable (and hides the real problem from the operator).
_FATAL_ERRNOS = frozenset({errno.ENOSPC, errno.EROFS, errno.EDQUOT})

#: The graceful-degradation ladder, fastest tier first.
DEGRADE_ORDER = ("process", "serial")


@dataclass(frozen=True)
class ExecEvent:
    """One structured supervision decision.

    Attributes:
        kind: ``"chunk-failure"`` (a chunk attempt failed),
            ``"retry"`` (failed chunks are about to re-run),
            ``"pool-rebuild"`` (the inner pool was abandoned),
            ``"degrade"`` (the inner backend moved down the ladder) or
            ``"give-up"`` (the retry budget ran out).
        backend: Name of the inner backend at the time of the event.
        failure: The classified failure (one of :data:`FAILURE_KINDS`), or
            ``None`` for events not tied to a failure.
        attempt: Zero-based attempt number the event belongs to.
        chunk_start: First trial index of the affected chunk (``None`` for
            pool-level events).
        chunk_size: Trial count of the affected chunk (``None`` likewise).
        detail: Human-readable context (exception repr, new tier, ...).
    """

    kind: str
    backend: str
    failure: Optional[str] = None
    attempt: int = 0
    chunk_start: Optional[int] = None
    chunk_size: Optional[int] = None
    detail: str = ""


class _ChunkTimeout(Exception):
    """Internal marker: a chunk overran its per-chunk deadline."""


def classify_failure(exc: BaseException) -> str:
    """Classify an execution failure into one of :data:`FAILURE_KINDS`.

    ``BrokenExecutor`` (including ``BrokenProcessPool``: a worker died or
    was killed), ``BrokenPipeError`` (a worker vanished mid-IPC) and
    ``MemoryError`` (recovering takes a fresh — and, after degradation, a
    smaller — pool) are a ``crash``; the internal timeout marker is a
    ``timeout``; ``OSError`` is split by errno — ``ENOSPC``/``EROFS``/
    ``EDQUOT`` are ``fatal`` (a full disk fails identically on every
    attempt), ``EMFILE``/``ENFILE``/``EAGAIN``/``EINTR`` are resource
    blips and stay ``transient``; everything else is ``transient``.
    Configuration errors are *not* classified — callers re-raise them,
    retrying cannot fix a bad job description.
    """
    if isinstance(exc, _ChunkTimeout):
        return "timeout"
    if isinstance(exc, BrokenExecutor):
        return "crash"
    if isinstance(exc, BrokenPipeError):  # pre-empts the OSError branch
        return "crash"
    if isinstance(exc, MemoryError):
        return "crash"
    if isinstance(exc, OSError):
        if exc.errno in _FATAL_ERRNOS:
            return "fatal"
        if exc.errno in _TRANSIENT_ERRNOS:
            return "transient"
    return "transient"


class SupervisedBackend(ExecutionBackend):
    """An :class:`ExecutionBackend` that survives its inner backend failing.

    Wraps another backend (instance or name) and runs each wave chunk
    under retry/timeout/backoff supervision with pool recovery and the
    ``process`` → ``serial`` degradation ladder described in the module
    docstring.  Because retried chunks are idempotent and results are
    still returned in trial-index order, a supervised run produces
    estimates **bit-identical** to an undisturbed one.
    """

    name = "supervised"

    def __init__(
        self,
        inner: BackendLike = None,
        *,
        workers: int = 1,
        retries: int = 3,
        chunk_timeout: Optional[float] = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        degrade_after: int = 2,
        on_event: Optional[Callable[[ExecEvent], None]] = None,
        owns_inner: bool = True,
    ) -> None:
        """Wrap ``inner`` (a backend instance, name, or ``None``).

        Args:
            inner: The supervised backend; names resolve through
                :func:`~repro.exec.backends.as_backend` with ``workers``.
            workers: Worker count used when ``inner`` is a name/``None``.
            retries: Extra attempts per chunk after the first failure.
            chunk_timeout: Per-chunk deadline in seconds (``None``: no
                deadline).  Reclaiming a timed-out chunk needs a killable
                pool, so timeouts are fully effective on the process
                backend; serial timeouts are detected and retried but the
                stuck call cannot be interrupted.
            backoff_base: First retry delay in seconds (doubled per
                attempt, jittered to 50-100%).
            backoff_cap: Upper bound on any single backoff delay.
            degrade_after: Pool-level failures (crash/timeout) tolerated
                before stepping down the degradation ladder.
            on_event: Optional callback invoked with every
                :class:`ExecEvent` (events are also collected on
                ``self.events``).
            owns_inner: Whether :meth:`close` closes the inner backend.
                Pass ``False`` when supervising a *shared* pool (the serve
                layer wraps one warm pool in a fresh request-scoped
                supervisor per request): the request's supervisor is
                closed, the pool lives on.  Recovery (``abandon``) is
                unaffected — a broken shared pool must still be written
                off, whoever owns it; it rebuilds lazily on its next wave.
        """
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ConfigurationError(
                f"chunk_timeout must be positive, got {chunk_timeout}"
            )
        if degrade_after < 1:
            raise ConfigurationError(
                f"degrade_after must be >= 1, got {degrade_after}"
            )
        self.inner = as_backend(inner, workers)
        self.retries = retries
        self.chunk_timeout = chunk_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.degrade_after = degrade_after
        self.events: List[ExecEvent] = []
        self._on_event = on_event
        self._pool_failures = 0
        self._owns_inner = owns_inner

    # -- event plumbing ---------------------------------------------------

    def _emit(self, **kwargs) -> None:
        event = ExecEvent(backend=self.inner.name, **kwargs)
        self.events.append(event)
        if self._on_event is not None:
            self._on_event(event)

    # -- chunk execution --------------------------------------------------

    def _run_chunk(self, spec: TrialSpec, chunk: List[Tuple[int, object]],
                   holder: dict) -> None:
        """Watchdog-thread body: one inner wave for one chunk."""
        try:
            start = chunk[0][0]
            seeds = [seq for _i, seq in chunk]
            holder["value"] = self.inner.run_wave(spec, start, seeds)
        except BaseException as exc:  # noqa: BLE001 - classified upstream
            holder["error"] = exc

    def _attempt_round(self, spec: TrialSpec,
                       chunk_list: List[Tuple[int, list]]):
        """Run the pending chunks concurrently; return per-chunk outcomes."""
        entries = []
        for cid, chunk in chunk_list:
            holder: dict = {}
            thread = threading.Thread(
                target=self._run_chunk, args=(spec, chunk, holder),
                daemon=True, name=f"repro-supervise-{cid}",
            )
            entries.append((cid, chunk, holder, thread))
            thread.start()
        deadline = (None if self.chunk_timeout is None
                    else time.monotonic() + self.chunk_timeout)
        outcomes = []
        for cid, chunk, holder, thread in entries:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            thread.join(remaining)
            if thread.is_alive():
                outcomes.append((cid, chunk, _ChunkTimeout(
                    f"chunk did not finish within {self.chunk_timeout:g}s"
                )))
            elif "error" in holder:
                outcomes.append((cid, chunk, holder["error"]))
            else:
                outcomes.append((cid, chunk, holder["value"]))
        return outcomes

    # -- recovery ---------------------------------------------------------

    def _degraded_inner(self) -> Optional[ExecutionBackend]:
        """The next backend down the ladder, or ``None`` at the bottom."""
        return SerialBackend() if self.inner.name == "process" else None

    def _recover_pool(self, attempt: int) -> None:
        """Abandon the broken/hung pool; degrade after repeated failures."""
        self.inner.abandon()
        self._pool_failures += 1
        self._emit(kind="pool-rebuild", attempt=attempt,
                   detail=f"pool failure #{self._pool_failures}")
        if self._pool_failures >= self.degrade_after:
            replacement = self._degraded_inner()
            if replacement is not None:
                self._emit(kind="degrade", attempt=attempt,
                           detail=f"{self.inner.name} -> {replacement.name}")
                self.inner = replacement
                # The replacement was created here, so this supervisor
                # owns it even when the original inner pool was shared.
                self._owns_inner = True
                self._pool_failures = 0

    def _backoff(self, attempt: int) -> float:
        """Capped exponential backoff with 50-100% jitter."""
        delay = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        return delay * random.uniform(0.5, 1.0)

    # -- the backend contract ---------------------------------------------

    def run_wave(self, spec: TrialSpec, start_index: int,
                 seeds: Sequence[np.random.SeedSequence]
                 ) -> List[Mapping[str, float]]:
        """Run one supervised wave; results in trial-index order.

        Chunks that fail are retried (after pool recovery and backoff)
        until they succeed or the retry budget is exhausted, in which case
        :class:`~repro.errors.ChunkRetryExhaustedError` carries the last
        classified failure.
        """
        items = list(enumerate(seeds, start=start_index))
        if not items:
            return []
        pieces = max(1, getattr(self.inner, "workers", 1))
        chunks = _chunk(items, pieces)
        pending = list(range(len(chunks)))
        results: dict = {}
        attempt = 0
        while pending:
            outcomes = self._attempt_round(
                spec, [(cid, chunks[cid]) for cid in pending]
            )
            failed: List[int] = []
            last_failure = ("transient", None)
            pool_hit = False
            for cid, chunk, out in outcomes:
                if not isinstance(out, BaseException):
                    results[cid] = out
                    continue
                if isinstance(out, ConfigurationError):
                    raise out  # retrying cannot fix a bad job description
                kind = classify_failure(out)
                self._emit(kind="chunk-failure", failure=kind,
                           attempt=attempt, chunk_start=chunk[0][0],
                           chunk_size=len(chunk), detail=repr(out))
                if kind == "fatal":
                    # A full/read-only filesystem fails identically on
                    # every attempt; surface it now instead of burning
                    # the retry budget.
                    raise out
                failed.append(cid)
                last_failure = (kind, out)
                pool_hit = pool_hit or kind in ("crash", "timeout")
            if not failed:
                break
            if pool_hit:
                self._recover_pool(attempt)
            if attempt >= self.retries:
                kind, cause = last_failure
                first = chunks[failed[0]]
                self._emit(kind="give-up", failure=kind, attempt=attempt,
                           chunk_start=first[0][0], chunk_size=len(first),
                           detail=repr(cause))
                raise ChunkRetryExhaustedError(
                    chunk_start=first[0][0], chunk_size=len(first),
                    attempts=attempt + 1, failure=kind,
                    cause=cause if cause is not None else Exception("unknown"),
                )
            delay = self._backoff(attempt)
            self._emit(kind="retry", attempt=attempt,
                       detail=f"{len(failed)} chunk(s) after {delay:.3f}s")
            if delay > 0:
                time.sleep(delay)
            attempt += 1
            pending = failed
        return [metrics for cid in sorted(results)
                for metrics in results[cid]]

    def close(self) -> None:
        """Close the (possibly degraded) inner backend, if owned."""
        if self._owns_inner:
            self.inner.close()

    def event_summary(self) -> Mapping[str, int]:
        """Event counts by kind — the CLI's one-line supervision report."""
        counts: dict = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
