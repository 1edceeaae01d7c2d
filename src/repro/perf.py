"""Per-stage performance instrumentation.

Lightweight wall-clock/call counters on the trial pipeline's stages —
``placement``, ``construction``, ``clustering``, ``coverage``,
``selection``, ``broadcast``, ``channel`` (PHY/MAC decision time, which
nests inside ``broadcast`` and is attributed exclusively) and
``maintenance`` (per-tick mobility upkeep, with ``maintenance.step`` /
``maintenance.delta`` / ``maintenance.repair`` sub-stages nested inside
it) — so sweeps can report *where* their time goes instead of one opaque
total.  The ``repro perf`` CLI subcommand and the ``perfbench/``
workloads' per-layer figures are the consumers.

Design constraints:

* **Zero overhead when off.**  Instrumented functions pay one module-level
  boolean check per call while disabled (the default); enable with
  :func:`enable` or the ``REPRO_PERF=1`` environment variable.
* **Exclusive attribution.**  Stages nest (a dynamic broadcast computes
  coverage sets internally); the active-stage stack *pauses* the outer
  stage while an inner one runs, so per-stage seconds sum to the pipeline
  total instead of double-counting.
* **Thread-aware.**  The stage stack is thread-local (supervisor
  watchdogs and serve runners execute trials on their own threads); the
  accumulated counters are global behind a lock, flushed once per stage
  exit.
* **Process-local.**  Counters live in the worker that does the work; the
  process backend's workers each keep their own registry.  Attribute
  stages with the ``serial`` backend (see docs/performance.md).
"""

from __future__ import annotations

import os
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Dict, Iterator, TypeVar

#: The canonical pipeline stages, in execution order.  :func:`stage` accepts
#: any name; these are the ones the built-in instrumentation emits.
STAGES = (
    "placement",
    "construction",
    "clustering",
    "coverage",
    "selection",
    "broadcast",
    "channel",
    "maintenance",
)

_enabled = os.environ.get("REPRO_PERF", "") not in ("", "0")
_mem_enabled = os.environ.get("REPRO_PERF_MEM", "") not in ("", "0")
if _mem_enabled and not tracemalloc.is_tracing():
    tracemalloc.start()
_lock = threading.Lock()
_counters: Dict[str, "StageStats"] = {}
_local = threading.local()

F = TypeVar("F", bound=Callable)


@dataclass
class StageStats:
    """Accumulated wall-clock, call count and (optional) memory for one stage.

    ``alloc_bytes`` is the net Python-heap growth attributed to the stage
    (tracemalloc delta, exclusive of nested stages, can be negative when a
    stage frees more than it allocates); ``peak_bytes`` is the highest
    traced heap watermark observed while the stage was running.  Both stay
    zero unless memory sampling is on (:func:`enable_memory` or
    ``REPRO_PERF_MEM=1``).
    """

    seconds: float = 0.0
    calls: int = 0
    alloc_bytes: int = 0
    peak_bytes: int = 0

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly representation."""
        out: Dict[str, float] = {"seconds": self.seconds, "calls": self.calls}
        if self.alloc_bytes or self.peak_bytes:
            out["alloc_bytes"] = self.alloc_bytes
            out["peak_bytes"] = self.peak_bytes
        return out


def enabled() -> bool:
    """Whether stage timing is currently recording."""
    return _enabled


def enable(on: bool = True) -> None:
    """Turn stage timing on (or off with ``on=False``)."""
    global _enabled
    _enabled = bool(on)


def memory_enabled() -> bool:
    """Whether per-stage memory sampling is currently recording."""
    return _mem_enabled


def enable_memory(on: bool = True) -> None:
    """Turn per-stage memory sampling on (or off with ``on=False``).

    Sampling uses :mod:`tracemalloc` (started on demand), which itself
    costs time and memory — keep it off for pure timing runs.  Memory is
    only recorded while stage timing is also enabled.
    """
    global _mem_enabled
    _mem_enabled = bool(on)
    if _mem_enabled and not tracemalloc.is_tracing():
        tracemalloc.start()


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    Complements the tracemalloc numbers: RSS covers numpy buffer pools and
    allocator overhead that the Python-heap tracer does not see.
    """
    try:
        import resource

        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak_kib) * 1024  # Linux reports KiB
    except Exception:  # pragma: no cover - non-POSIX fallback
        return 0


def reset() -> None:
    """Drop all accumulated counters."""
    with _lock:
        _counters.clear()


def snapshot() -> Dict[str, Dict[str, float]]:
    """Current counters as ``{stage: {"seconds": s, "calls": n}}``."""
    with _lock:
        return {name: stats.as_dict() for name, stats in _counters.items()}


class _Frame:
    """One entry of the active-stage stack: a pausable stopwatch.

    With memory sampling on, each run segment (entry to pause, resume to
    pause, ...) also snapshots the traced heap at its start and resets the
    tracemalloc peak, so nested stages never leak their allocations — or
    their peaks — into the enclosing stage's numbers.
    """

    __slots__ = ("name", "started", "accumulated", "mem", "mem_start",
                 "alloc_bytes", "peak_bytes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.mem = _mem_enabled and tracemalloc.is_tracing()
        self.accumulated = 0.0
        self.alloc_bytes = 0
        self.peak_bytes = 0
        self._begin_segment()
        self.started = time.perf_counter()

    def _begin_segment(self) -> None:
        if self.mem:
            tracemalloc.reset_peak()
            self.mem_start = tracemalloc.get_traced_memory()[0]

    def _end_segment(self) -> None:
        if self.mem:
            current, peak = tracemalloc.get_traced_memory()
            self.alloc_bytes += current - self.mem_start
            self.peak_bytes = max(self.peak_bytes, peak)

    def pause(self) -> None:
        self.accumulated += time.perf_counter() - self.started
        self._end_segment()

    def resume(self) -> None:
        self._begin_segment()
        self.started = time.perf_counter()

    def stop(self) -> float:
        self.pause()
        return self.accumulated


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Attribute the enclosed wall-clock time to ``name``.

    Entering a stage pauses the enclosing one (exclusive attribution); the
    call counter increments once per entry.  A no-op while disabled.
    """
    if not _enabled:
        yield
        return
    stack = _stack()
    if stack:
        stack[-1].pause()
    frame = _Frame(name)
    stack.append(frame)
    try:
        yield
    finally:
        elapsed = frame.stop()
        stack.pop()
        if stack:
            stack[-1].resume()
        with _lock:
            stats = _counters.get(name)
            if stats is None:
                stats = _counters[name] = StageStats()
            stats.seconds += elapsed
            stats.calls += 1
            if frame.mem:
                stats.alloc_bytes += frame.alloc_bytes
                stats.peak_bytes = max(stats.peak_bytes, frame.peak_bytes)


def timed(name: str) -> Callable[[F], F]:
    """Decorator form of :func:`stage` (one boolean check when disabled)."""

    def decorate(fn: F) -> F:
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            with stage(name):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def _fmt_bytes(n: float) -> str:
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{sign}{n:.1f}{unit}" if unit != "B" else f"{sign}{int(n)}B"
        n /= 1024.0
    return f"{sign}{n:.1f}GiB"  # pragma: no cover - unreachable


def render_report(counters: Dict[str, Dict[str, float]] | None = None) -> str:
    """The counters as an aligned text table (canonical stage order first).

    Memory columns (net allocation and traced-heap peak) appear when any
    counter carries memory samples — i.e. the run had
    :func:`enable_memory` / ``REPRO_PERF_MEM=1`` active.
    """
    counters = snapshot() if counters is None else counters
    names = [s for s in STAGES if s in counters]
    names += sorted(set(counters) - set(STAGES))
    total = sum(c["seconds"] for c in counters.values()) or 1.0
    with_mem = any(
        c.get("alloc_bytes") or c.get("peak_bytes") for c in counters.values()
    )
    header = f"{'stage':<14} {'calls':>8} {'seconds':>10} {'share':>7}"
    if with_mem:
        header += f" {'alloc':>10} {'peak':>10}"
    lines = [header]
    for name in names:
        c = counters[name]
        line = (
            f"{name:<14} {int(c['calls']):>8} {c['seconds']:>10.4f} "
            f"{c['seconds'] / total:>6.1%}"
        )
        if with_mem:
            line += (
                f" {_fmt_bytes(c.get('alloc_bytes', 0)):>10}"
                f" {_fmt_bytes(c.get('peak_bytes', 0)):>10}"
            )
        lines.append(line)
    lines.append(
        f"{'total':<14} {'':>8} "
        f"{sum(c['seconds'] for c in counters.values()):>10.4f} {'':>7}"
    )
    if with_mem:
        rss = peak_rss_bytes()
        if rss:
            lines.append(f"peak RSS {_fmt_bytes(rss)}")
    return "\n".join(lines)
