"""Execution backends: where paired trials actually run.

Two interchangeable strategies behind one contract:

* ``serial`` — inline in the calling thread.  The reference backend: the
  process pool must reproduce its results bit for bit.
* ``process`` — a persistent ``ProcessPoolExecutor``.  Real multi-core
  execution: trials cross the boundary as a :class:`~repro.exec.spec.TrialSpec`
  plus per-trial seed sequences (both tiny and picklable); workers resolve
  the spec once and keep it memoized, so steady-state submissions pickle a
  few hundred bytes per chunk, never the trial function.

Both run the same body, :func:`_run_spec_chunk`, the serial backend on the
whole wave in-process and the process workers on one chunk each.  The
determinism contract they share: a wave of trials is described by
``(spec, start_index, seed_sequences)`` where trial ``i`` always consumes
spawned child stream ``i``; backends return results **in trial-index
order**, so the caller's fold is independent of scheduling, worker count
and chunking.

Backends are cheap to construct but pools are not, so :func:`shared_backend`
hands out process backends memoized per worker count — a figure sweep's ten
experiment points reuse one warm pool instead of forking eight workers per
point.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.exec.spec import TrialSpec, resolve_cached

#: Names accepted by :func:`as_backend` / ``paired_trials(backend=...)``.
BACKENDS = ("serial", "process")


def _validate_workers(workers: int) -> None:
    """Reject non-positive worker counts before any pool is touched."""
    if not isinstance(workers, int) or isinstance(workers, bool) \
            or workers < 1:
        raise ConfigurationError(
            f"workers must be an int >= 1, got {workers!r}")


def _run_spec_chunk(spec: TrialSpec,
                    items: List[Tuple[int, np.random.SeedSequence]]
                    ) -> List[Mapping[str, float]]:
    """Resolve ``spec`` (memoized) and run its ``(index, seed)`` items.

    A resolved trial may carry a ``run_batch`` attribute taking
    ``[(index, generator), ...]`` and returning the metrics in item
    order — the seam the array broadcast kernels use to evaluate a whole
    wave per invocation.  The contract is bit-exactness: batch results
    must equal per-item calls.
    """
    fn = resolve_cached(spec)
    batch = getattr(fn, "run_batch", None)
    if batch is not None:
        return list(batch([
            (index, np.random.default_rng(seq)) for index, seq in items
        ]))
    return [fn(index, np.random.default_rng(seq)) for index, seq in items]


#: How often a pool worker checks that the process that started it lives.
_PARENT_POLL_SECONDS = 0.5


def _exit_with_parent(parent_pid: int) -> None:
    """Pool initializer: end this worker once its parent process is gone.

    A parent killed with ``SIGKILL`` never shuts its pool down, and the
    workers would block on the call queue forever (their siblings hold its
    write end, so none sees EOF).  A daemon thread polls ``os.getppid()``,
    which changes when the orphan is reparented, and exits the worker.
    ``PR_SET_PDEATHSIG`` is no substitute: it fires when the forking
    *thread* exits, and supervisor watchdog threads start pools.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _chunk(items: list, pieces: int) -> List[list]:
    """Split ``items`` into at most ``pieces`` contiguous runs."""
    size = max(1, math.ceil(len(items) / max(1, pieces)))
    return [items[i:i + size] for i in range(0, len(items), size)]


class ExecutionBackend(ABC):
    """The pluggable execution strategy behind ``paired_trials``."""

    name: str

    @abstractmethod
    def run_wave(self, spec: TrialSpec, start_index: int,
                 seeds: Sequence[np.random.SeedSequence]
                 ) -> List[Mapping[str, float]]:
        """Run trials ``start_index .. start_index+len(seeds)-1`` of ``spec``.

        Returns:
            One metrics mapping per trial, **in trial-index order**.
        """

    def close(self) -> None:
        """Release pooled resources (idempotent; no-op by default)."""

    def abandon(self) -> None:
        """Discard a (possibly wedged) pool without waiting for it.

        The supervision layer calls this after a worker crash or a hung
        chunk: the current pool is written off — workers are killed where
        the platform allows it — and the next wave transparently builds a
        fresh one.  Defaults to :meth:`close` for backends with nothing to
        kill.
        """
        self.close()


class SerialBackend(ExecutionBackend):
    """Inline execution — the bit-exact reference for the process pool."""

    name = "serial"

    def run_wave(self, spec, start_index, seeds):
        return _run_spec_chunk(spec, list(enumerate(seeds, start=start_index)))


class ProcessBackend(ExecutionBackend):
    """Process-pool execution: real multi-core throughput.

    The pool is persistent (created on first wave, reused until
    :meth:`close`); work ships as ``(spec, [(index, seed), ...])`` chunks —
    roughly one chunk per worker per wave — and results come back in chunk
    order, which is trial-index order.  Workers exit on their own within
    about half a second when the parent process dies.
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        _validate_workers(workers)
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # Guarded: the supervision layer runs chunks from concurrent
        # watchdog threads, and an unlocked check-then-create would leak a
        # second pool when two of them arrive at a rebuilt backend at once.
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_exit_with_parent,
                    initargs=(os.getpid(),),
                )
            return self._pool

    def _take_pool(self) -> Optional[ProcessPoolExecutor]:
        """Detach the current pool under the lock (None when already gone).

        Close/abandon first *swap* the reference atomically and only then
        shut the detached pool down outside the lock: two concurrent
        closers each shut down at most their own detached pool (double
        close is a no-op), and a close racing a rebuild either takes the
        fresh pool or leaves it for the next wave — never shuts down a
        pool another thread is still installing.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            return pool

    def close(self) -> None:
        """Shut the pool down after its running work (idempotent)."""
        pool = self._take_pool()
        if pool is not None:
            pool.shutdown()

    def abandon(self) -> None:
        """Kill the worker processes and write the pool off.

        Used to reclaim a *hung* pool: killing the workers breaks the
        executor, which promptly fails every outstanding future (so a
        supervisor thread blocked on a wedged chunk unblocks instead of
        waiting forever), and the dead pool is dropped for
        :meth:`_ensure_pool` to rebuild on the next wave.
        """
        pool = self._take_pool()
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # pragma: no cover - best-effort cleanup
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _submit_wave(self, submit):
        """Run ``submit(pool)`` against a live pool, resubmitting if a
        concurrent ``close``/``abandon`` shut the pool down between
        ``_ensure_pool`` returning it and the submission landing.  Safe
        because waves are idempotent (pure functions of their
        ``(index, seed)`` items) — a resubmitted wave returns
        bit-identical results.
        """
        while True:
            pool = self._ensure_pool()
            try:
                return submit(pool)
            except RuntimeError as exc:
                if "shutdown" not in str(exc):
                    raise

    def run_wave(self, spec, start_index, seeds):
        chunks = _chunk(list(enumerate(seeds, start=start_index)),
                        self.workers)

        def submit(pool):
            futures = [pool.submit(_run_spec_chunk, spec, chunk)
                       for chunk in chunks]
            results: List[Mapping[str, float]] = []
            for future in futures:  # submission order == trial-index order
                results.extend(future.result())
            return results

        return self._submit_wave(submit)


_SHARED: Dict[int, ProcessBackend] = {}
_SHARED_LOCK = threading.Lock()

BackendLike = Union[None, str, ExecutionBackend]


def shared_backend(name: str, workers: int = 1) -> ExecutionBackend:
    """A memoized process backend per worker count — pools stay warm.

    ``"serial"`` returns a fresh :class:`SerialBackend` (it holds no
    resources).  Shared pools are shut down at interpreter exit (the
    registered :func:`shutdown_shared_backends` ``atexit`` hook) or
    explicitly.  Registry access is lock-guarded: concurrent first
    requests for the same worker count get one backend, not one each.
    """
    _validate_workers(workers)
    if name == "serial":
        return SerialBackend()
    if name != "process":
        raise ConfigurationError(
            f"unknown backend {name!r}; expected one of {BACKENDS}"
        )
    with _SHARED_LOCK:
        backend = _SHARED.get(workers)
        if backend is None:
            backend = _SHARED[workers] = ProcessBackend(workers)
        return backend


def shutdown_shared_backends() -> None:
    """Close every process backend handed out by :func:`shared_backend`.

    Idempotent and safe against concurrent callers (and against a
    shared_backend() racing in): the registry is drained under the lock,
    each detached backend is closed outside it, and its ``close`` is
    itself idempotent — a backend that was already closed (or is closed
    twice by racing shutdowns) is a no-op.
    """
    while True:
        with _SHARED_LOCK:
            if not _SHARED:
                return
            _, backend = _SHARED.popitem()
        backend.close()


atexit.register(shutdown_shared_backends)


def as_backend(backend: BackendLike, workers: int = 1) -> ExecutionBackend:
    """Normalise ``backend`` (name, instance or ``None``) into an instance.

    ``None`` selects ``serial`` for one worker and ``process`` for more.
    """
    _validate_workers(workers)
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = "serial" if workers <= 1 else "process"
    if not isinstance(backend, str):
        raise ConfigurationError(
            f"backend must be a name or ExecutionBackend, got "
            f"{type(backend).__name__}"
        )
    return shared_backend(backend, workers)
