"""Shared plumbing of the benchmark: run context, statistics, host
fingerprint, host-speed scaling, the exact-count ledger and the result
line.

Every workload module exposes ``run(ctx) -> Outcome``.  The workload
decides what one op is; this module only measures, summarises and checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import numpy

#: The checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch state the benchmark writes (daemon roots, the count ledger).
STATE_DIR = ROOT / ".perfbench-state"

#: Setups per run; ``setup_s`` is their median.
SETUPS = 3

#: Wall time of one :func:`reference_seconds` sample on the 2-vCPU host of
#: NOTES.md at its fast state.  Every reported time is scaled to this host
#: speed (see :func:`speed_factor`).
REF_SECONDS = 0.025

#: Seconds between two samples of :class:`SpeedSampler` (each costs about
#: :data:`REF_SECONDS`).
SAMPLE_INTERVAL = 0.5


@dataclass
class Context:
    """What one benchmark run was asked to do.

    Attributes:
        workload: Workload name.
        seed: Workload seed; every input is derived from it.
        seconds: Measured time of the run (a traced run splits it into an
            untraced and a traced phase).
        trace: Run the traced phase and report per-layer metrics.
        tiny: Tiny sizes (self-test only; no reference digests apply).
        plant_wrong_oracle: Corrupt one expected value (self-test only), so
            the run must come out incorrect.
    """

    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool = False
    plant_wrong_oracle: bool = False


@dataclass
class Outcome:
    """What a workload reports back to :func:`finish`.

    Attributes:
        metrics: Metric name -> value (end-to-end or per-layer, by mode).
        attempted / failed: Ops attempted and ops whose checks failed.
        counts: Exact work counters; they must repeat for the same seed.
        errors: Human-readable check failures (any makes the run incorrect).
        detail: Extra facts for the detail line (warm-up, samples, ...).
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    counts: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        """Record ``message`` as a failed check unless ``ok``."""
        if not ok:
            self.errors.append(message)
        return ok


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units every run emits."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median(values: List[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def p90(values: List[float]) -> float:
    """90th percentile (inclusive interpolation) of a non-empty sample."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def peak_rss_mib() -> float:
    """Peak RSS of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mib(pid: int) -> float:
    """Peak RSS (``VmHWM``) of another live process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def fingerprint() -> Dict[str, object]:
    """The host facts a comparison must hold equal."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def timed(fn: Callable[[], object]) -> "tuple[float, object]":
    """``(wall seconds, result)`` of one call."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def reference_seconds() -> float:
    """The host's speed now: wall time of one pass of a fixed loop of pure
    Python arithmetic and numpy sorting.

    It runs no library code, so a change to the library cannot move it.
    On a shared host the cycles themselves speed up and slow down by tens
    of percent within seconds; this loop slows with them (NOTES.md).
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    values = numpy.random.default_rng(1).random(100_000)
    for _ in range(5):
        values = numpy.sort(values)[::-1].copy()
    return time.perf_counter() - t0


def speed_factor(refs: List[float]) -> float:
    """Factor that scales a wall time measured while the reference samples
    ``refs`` were taken to the host speed of :data:`REF_SECONDS`."""
    return REF_SECONDS / statistics.fmean(refs)


class SpeedSampler:
    """Samples the host's speed every :data:`SAMPLE_INTERVAL` seconds while
    an op runs, so the op's time can be scaled by the speed it ran at.

    A ``SIGALRM`` handler takes each sample in the main thread, between
    bytecodes of whatever the op is running; :meth:`timed` leaves the time
    spent sampling out.  Use it only in the main thread, around code that
    sets no ``SIGALRM`` handler of its own.  With ``periodic=False`` it
    samples only on entry and exit: the traced phase needs that, because
    the library's own stage timers would count the samples taken inside
    a stage.
    """

    def __init__(self, periodic: bool = True) -> None:
        self.periodic = periodic
        self.refs: List[float] = []
        self.spent = 0.0

    def _sample(self, *_: object) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL,
                             SAMPLE_INTERVAL)
        return self

    def __exit__(self, *_: object) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def timed(self, fn: Callable[[], object]) -> "tuple[float, object]":
        """``(wall seconds without sampling, result)`` of one call."""
        spent = self.spent
        seconds, out = timed(fn)
        return seconds - (self.spent - spent), out

    def factor(self) -> float:
        """:func:`speed_factor` of every sample taken so far."""
        return speed_factor(self.refs)


def import_seconds(modules: List[str]) -> float:
    """Median wall time of a fresh interpreter importing ``modules``, at
    reference speed.

    This is the part of set-up a user pays on every process start.
    """
    import subprocess

    code = "import " + ", ".join(modules)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    # Speed samples between the imports, not during them: the sampler
    # would run beside the child, not in series with it.
    refs = [reference_seconds()]
    for _ in range(SETUPS):
        seconds, _ = timed(lambda: subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, cwd=ROOT,
            timeout=120))
        samples.append(seconds)
        refs.append(reference_seconds())
    return median(samples) * speed_factor(refs)


def digest(payload: object) -> str:
    """Stable SHA-256 of a JSON-ready payload (floats by exact repr)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def code_version() -> str:
    """Short SHA-256 of the library source and the benchmark's own code.

    Exact counts are compared only between runs of the same version: a
    change to either may legitimately alter the work done.
    """
    h = hashlib.sha256()
    for base in (ROOT / "src", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_ledger(ctx: Context, outcome: Outcome) -> None:
    """Compare this run's exact counts with earlier runs of the same seed.

    The ledger holds one record per workload, scale, seed and
    :func:`code_version`.  The first run of a seed under a version records
    its counts; every later run of that version must reproduce them
    exactly, traced or not, or the run fails: the work done is then not a
    function of the seed.  Records of other versions are only compared
    for the detail line (``counts_changed``: version -> differing keys),
    so a change that alters the work shows as a count, not as a failure.
    """
    if not outcome.counts:
        return
    scale = "tiny" if ctx.tiny else "full"
    folder = STATE_DIR / "counts" / f"{ctx.workload}-{scale}-{ctx.seed}"
    version = code_version()
    path = folder / f"{version}.json"
    current = json.loads(json.dumps(outcome.counts, sort_keys=True))
    changed = {}
    for other in sorted(folder.glob("*.json")) if folder.is_dir() else ():
        recorded = json.loads(other.read_text())
        keys = sorted(k for k in set(recorded) | set(current)
                      if recorded.get(k) != current.get(k))
        if other == path:
            for key in keys:
                outcome.check(
                    False, f"count {key!r} differs from an earlier run of "
                           f"seed {ctx.seed}: {recorded.get(key)!r} != "
                           f"{current.get(key)!r}")
        elif keys:
            changed[other.stem] = keys
    outcome.detail["code_version"] = version
    outcome.detail["counts_changed"] = changed
    if path.exists():
        return
    folder.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(current, sort_keys=True))
    os.replace(tmp, path)


def finish(ctx: Context, outcome: Outcome, spec: dict) -> dict:
    """Validate the metric set against ``spec`` and build the result line.

    Also prints one detail line (fingerprint, counts, errors) before it.
    """
    wanted = spec["per_layer"] if ctx.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    outcome.check(
        set(outcome.metrics) == set(units),
        f"metric set mismatch: missing "
        f"{sorted(set(units) - set(outcome.metrics))}, unexpected "
        f"{sorted(set(outcome.metrics) - set(units))}",
    )
    check_ledger(ctx, outcome)
    if outcome.errors and outcome.failed == 0:
        outcome.failed = 1  # a failed check always shows as a failed op
    detail = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "tiny": ctx.tiny,
        "fingerprint": fingerprint(),
        "counts": outcome.counts,
        "errors": outcome.errors,
        **outcome.detail,
    }
    print(json.dumps({"detail": detail}, sort_keys=True), flush=True)
    for message in outcome.errors:
        print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)
    return {
        "correct": not outcome.errors,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics.get(name, 0.0)),
                   "unit": unit}
            for name, unit in units.items()
        },
    }


def zero_layers(spec: dict) -> Dict[str, float]:
    """Every per-layer metric at 0 — the value of a layer a workload
    never enters."""
    return {m["name"]: 0.0 for m in spec["per_layer"]}


def overhead_pct(untraced: List[float], traced: List[float]) -> float:
    """Tracing overhead: traced median over untraced median, in percent."""
    return (median(traced) / median(untraced) - 1.0) * 100.0


@dataclass
class Phase:
    """The ops of one measured phase.

    Attributes:
        raw: Wall seconds of each op.
        scaled: The same at reference speed (what the metrics report).
        payloads: What each op returned for the checks.
    """

    raw: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)
    payloads: List[object] = field(default_factory=list)


def run_phase(op: Callable[[], "tuple[float, float, object]"],
              seconds: float) -> Phase:
    """Run ``op`` back to back while another op is expected to end within
    ``seconds`` (always at least once).

    ``op`` returns ``(wall seconds, scaled seconds, payload)`` — it times
    its own work (see :class:`SpeedSampler`) so that speed samples and
    untimed bookkeeping stay out of the figure.
    """
    phase = Phase()
    start = time.perf_counter()
    while not phase.raw or (time.perf_counter() - start + median(phase.raw)
                            <= seconds):
        raw, scaled, payload = op()
        phase.raw.append(raw)
        phase.scaled.append(scaled)
        phase.payloads.append(payload)
    return phase


def phase_seconds(ctx: Context) -> float:
    """Length of each measured phase: a traced run splits its time
    between an untraced and a traced phase."""
    return ctx.seconds / 2 if ctx.trace else ctx.seconds


class StealMeter:
    """Share of CPU time the hypervisor gave to other guests while this
    run measured (``/proc/stat`` steal over all ticks, in percent)."""

    def __init__(self) -> None:
        self.start = self._read()

    @staticmethod
    def _read() -> "tuple[int, int]":
        try:
            with open("/proc/stat") as f:
                fields = [int(x) for x in f.readline().split()[1:]]
        except (OSError, ValueError):
            return 0, 0
        steal = fields[7] if len(fields) > 7 else 0
        return steal, sum(fields[:8])

    def percent(self) -> float:
        steal, total = self._read()
        d_total = total - self.start[1]
        return 100.0 * (steal - self.start[0]) / d_total if d_total else 0.0


def rate(count: int, seconds: float) -> float:
    """Ops per second."""
    return count / seconds if seconds > 0 else 0.0
