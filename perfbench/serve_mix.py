"""``serve-mix``: a closed loop of small requests against ``repro serve``.

Set-up spawns the daemon with its CLI defaults (process backend,
``--parallel 2``) and warms it with one request per class.  Two client
connections then submit a fixed, seed-derived sequence of four request
classes, each client sending its next request ``THINK_SECONDS`` after the
previous one reached its terminal frame.  Trial counts are tiny, so per-request
overhead dominates: admission, manifest and journal fsyncs, queue wait,
pool dispatch and stream frames.  Latencies are scaled to reference host
speed by samples taken between blocks of the sequence, with nothing in
flight (see ``closed_loop``).

Every served result is compared with the serial one-shot oracle for its
parameters, computed after the timed loop with the daemon stopped.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from common import (
    ROOT, SETUPS, STATE_DIR, Context, Outcome, digest, median,
    overhead_pct, p90, phase_seconds, proc_peak_rss_mib, reference_seconds,
    speed_factor, zero_layers,
)

from repro.serve.client import ServeClient
from repro.workload.serve_adapters import RunContext, get_adapter

CLIENTS = 2
TRIALS = 4
MIN_REQUESTS = 100
#: Pause between a client's terminal frame and its next send.  It keeps
#: the single-executor daemon below saturation, so a latency measures the
#: request rather than the queue behind the other client, and each class
#: keeps its own latency band (see NOTES.md).
THINK_SECONDS = 0.2

#: class -> (experiment, streamed, requests per block).  The weights put
#: p50 inside the channel-n100 band and p90 in the middle of the fig7-n300
#: band, which twice the trials keep clear of the others (see NOTES.md).
CLASSES = {
    "fig6-hot": ("fig6", False, 1),
    "fig6-cold": ("fig6", False, 1),
    "fig7-n300": ("fig7", True, 1),
    "channel-n100": ("channel", True, 2),
}
#: Requests per block of the sequence (see :func:`sequence`).
BLOCK = sum(weight for (_, _, weight) in CLASSES.values())


@dataclass(frozen=True)
class Request:
    index: int
    cls: str
    experiment: str
    params: dict
    streamed: bool


@dataclass
class Record:
    """One request as the client saw it (times from ``time.perf_counter``)."""

    request: Request
    rid: str
    sent: float
    end: float = 0.0
    accepted: Optional[float] = None
    running: Optional[float] = None
    frames: int = 0
    result: Optional[dict] = None
    error: Optional[dict] = None

    @property
    def latency(self) -> float:
        return self.end - self.sent


def class_params(cls: str, seed: int, rng: random.Random) -> dict:
    """Parameters of one request; only ``fig6-cold`` draws a fresh seed."""
    if cls == "fig6-hot":
        return {"ns": [100], "degrees": [6.0], "trials": TRIALS,
                "seed": 1_000 + seed}
    if cls == "fig6-cold":
        return {"ns": [100], "degrees": [6.0], "trials": TRIALS,
                "seed": rng.randrange(2 ** 40)}
    if cls == "fig7-n300":
        return {"ns": [300], "degrees": [6.0], "trials": 2 * TRIALS,
                "seed": 2_000 + seed}
    return {"n": 100, "trials": TRIALS, "seed": 3_000 + seed}


def sequence(seed: int, tag: str) -> Iterator[Request]:
    """The endless request sequence of ``seed`` (``tag`` splits phases).

    Requests come in blocks of ``BLOCK``, each holding every class exactly
    its weight times, in a seed-shuffled order.  A loop that stops at a
    block boundary therefore runs the same class mix for every seed, and
    the percentiles do not move with a seed's luck of the draw.
    """
    rng = random.Random(f"{seed}:{tag}")
    block = [cls for cls, (_, _, weight) in CLASSES.items()
             for _ in range(weight)]
    index = 0
    while True:
        rng.shuffle(block)
        for cls in block:
            experiment, streamed, _ = CLASSES[cls]
            yield Request(index, cls, experiment,
                          class_params(cls, seed, rng), streamed)
            index += 1


def warm_requests(seed: int) -> List[Request]:
    """One request per class, as the first of the class would be."""
    rng = random.Random(f"{seed}:warm")
    return [Request(i, cls, CLASSES[cls][0], class_params(cls, seed, rng),
                    CLASSES[cls][1]) for i, cls in enumerate(CLASSES)]


class Daemon:
    """``repro serve`` as a child process with its own state directory."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.socket = os.path.relpath(directory / "d.sock", ROOT)
        self.proc: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(self.directory / "stderr.log", "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--socket", self.socket,
                 "--root", os.path.relpath(self.directory / "root", ROOT)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err,
                start_new_session=True,
            )
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if b"serving on" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")

    def client(self) -> ServeClient:
        return ServeClient(self.socket)

    def stop(self) -> None:
        """Kill the whole process group — the daemon and its pool workers —
        and reap the daemon.  Nothing is left to drain (every request has
        finished), and a graceful SIGTERM drain costs about 5 s."""
        proc = self.proc
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(60)
        proc.stdout.close()
        self.proc = None


def send(client: ServeClient, request: Request, traced: bool) -> Record:
    """One request, timed from send to its terminal frame."""
    rid = f"r{request.index}-{request.cls}-{os.getpid()}-{time.monotonic_ns()}"
    record = Record(request, rid, sent=time.perf_counter())
    if request.streamed:
        frames = client.stream(request.experiment, request.params,
                               request_id=rid, timeout=60)
    else:
        frames = _polled(client, request, rid)
    terminal: dict = {}
    for frame in frames:
        now = time.perf_counter()
        record.frames += 1
        kind = frame.get("type")
        if traced:
            if kind == "accepted":
                record.accepted = now
            elif (kind == "update" and frame.get("state") == "running"
                  and record.running is None):
                record.running = now
        terminal = frame
    record.end = time.perf_counter()
    if terminal.get("type") == "result":
        record.result = terminal["result"]
    else:
        record.error = terminal or {"code": "no-terminal-frame"}
    return record


def _polled(client: ServeClient, request: Request, rid: str):
    accepted = client.submit(request.experiment, request.params,
                             request_id=rid, timeout=60)
    yield accepted
    if accepted.get("type") == "accepted":
        yield client.result(rid, timeout=60)


@dataclass
class Loop:
    """One closed-loop phase.

    Attributes:
        records: Every request sent, in completion order.
        busy: Mean wall time a client spent in the loop outside its pauses
            and the block gates.
        refs: Reference samples (``common.reference_seconds``) taken with
            nothing in flight: ``refs[b]`` before block ``b``, and one
            after the last block.
    """

    records: List[Record]
    busy: float
    refs: List[float]

    def scaled_busy(self) -> float:
        return self.busy * speed_factor(self.refs)

    def latencies(self) -> List[float]:
        """Per-request latency at reference speed; a failed request counts
        as a client's whole busy time."""
        factor = speed_factor(self.refs)
        return [r.latency * factor if r.error is None
                else self.scaled_busy() for r in self.records]


def closed_loop(daemon: Daemon, requests: Iterator[Request], seconds: float,
                min_requests: int, traced: bool) -> Loop:
    """``CLIENTS`` clients in a closed loop until ``seconds`` passed, at
    least ``min_requests`` were sent and the last block of the sequence is
    complete.

    Before each block the clients wait until nothing is in flight and one
    of them takes a speed sample, so the samples measure the host rather
    than the host under the loop's own load.  (A scale per block from the
    two samples around it tracked the host no better than one scale from
    all samples, and a single slow sample swung it.)
    """
    cond = threading.Condition()
    records: List[Record] = []
    refs: List[float] = []
    sent = [0]
    inflight = [0]
    busy: List[float] = []
    start = time.perf_counter()
    crashed: List[BaseException] = []

    def client_loop() -> None:
        client = daemon.client()
        paused = 0.0
        try:
            while True:
                with cond:
                    t0 = time.perf_counter()
                    if (t0 - start >= seconds and sent[0] >= min_requests
                            and sent[0] % BLOCK == 0):
                        busy.append(t0 - start - paused)
                        return
                    if sent[0] % BLOCK == 0 and len(refs) == sent[0] // BLOCK:
                        cond.wait_for(lambda: inflight[0] == 0)
                        if len(refs) == sent[0] // BLOCK:
                            refs.append(reference_seconds())
                    request = next(requests)
                    sent[0] += 1
                    inflight[0] += 1
                    paused += time.perf_counter() - t0
                record = send(client, request, traced)
                with cond:
                    records.append(record)
                    inflight[0] -= 1
                    cond.notify_all()
                t0 = time.perf_counter()
                time.sleep(THINK_SECONDS)
                paused += time.perf_counter() - t0
        except BaseException as exc:  # reported as a failed check
            crashed.append(exc)
            with cond:
                inflight[0] = 0
                cond.notify_all()

    threads = [threading.Thread(target=client_loop, daemon=True)
               for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(seconds + 600)
    if crashed or any(t.is_alive() for t in threads):
        raise RuntimeError(f"client loop failed: {crashed!r}")
    refs.append(reference_seconds())
    return Loop(records, sum(busy) / len(busy), refs)


def oracle(request: Request, plant_wrong: bool = False) -> str:
    """The serial one-shot answer for ``request``'s parameters, as JSON
    (with ``plant_wrong``, one number in it is off by one)."""
    adapter = get_adapter(request.experiment)
    result = adapter.run(adapter.validate(request.params),
                         RunContext(backend="serial", parallel=1))
    if plant_wrong:
        _bump_first_number(result)
    return json.dumps(result, sort_keys=True)


def _bump_first_number(node) -> bool:
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            node[key] = value + 1
            return True
        if _bump_first_number(value):
            return True
    return False


def collisions(result: dict) -> int:
    """Collisions summed over protocols and trials of a channel result."""
    total = 0.0
    for point in result["points"]:
        total += sum(point["collisions"].values()) * point["trials"]
    return int(round(total))


def run(ctx: Context, spec: dict) -> Outcome:
    """One serve-mix run (see the module docstring)."""
    outcome = Outcome()
    base = STATE_DIR / f"serve-{os.getpid()}"
    min_requests = BLOCK if ctx.tiny else MIN_REQUESTS
    setups: List[float] = []
    warmup_s = 0.0
    daemon: Optional[Daemon] = None
    refs = [reference_seconds()]
    try:
        for k in range(SETUPS):
            if daemon is not None:
                daemon.stop()
            t0 = time.perf_counter()
            daemon = Daemon(base / f"d{k}")
            daemon.start()
            t1 = time.perf_counter()
            client = daemon.client()
            for request in warm_requests(ctx.seed):
                record = send(client, request, False)
                outcome.check(record.error is None,
                              f"warm-up {request.cls} failed: "
                              f"{record.error}")
            outcome.check(client.health().get("readyz") is True,
                          "daemon not ready after warm-up")
            warmup_s = time.perf_counter() - t1
            setups.append(time.perf_counter() - t0)
            refs.append(reference_seconds())

        loop = closed_loop(daemon, sequence(ctx.seed, "untraced"),
                           phase_seconds(ctx), min_requests, False)
        traced_loop = Loop([], 0.0, [])
        if ctx.trace:
            traced_loop = closed_loop(
                daemon, sequence(ctx.seed, "traced"), phase_seconds(ctx),
                min_requests, True)
        health = daemon.client().health()
        peak = proc_peak_rss_mib(daemon.proc.pid)
        journal_root = daemon.directory / "root" / "requests"
    finally:
        if daemon is not None:
            daemon.stop()

    # -- checks, all after the daemon stopped ------------------------------
    records, traced = loop.records, traced_loop.records
    everything = records + traced
    outcome.attempted = len(everything)
    expected: Dict[str, str] = {}
    for record in everything:
        key = digest([record.request.experiment, record.request.params])
        if key not in expected:
            expected[key] = oracle(record.request, ctx.plant_wrong_oracle
                                   and not expected)
        what = f"request {record.request.index} ({record.request.cls})"
        if record.result is None:
            ok = outcome.check(False, f"{what} failed: {record.error}")
        else:
            ok = outcome.check(
                json.dumps(record.result, sort_keys=True) == expected[key],
                f"{what} served a result that differs from the oracle")
        outcome.failed += not ok
    outcome.check(health["stats"]["shed"] == 0
                  and health["stats"]["failed"] == 0,
                  f"daemon shed or failed requests: {health['stats']}")
    outcome.check(len(records) >= min_requests,
                  f"only {len(records)} requests in the loop")

    # Exact counts cover the first min_requests requests of the sequence,
    # which every run sends whatever its speed.
    prefix = sorted(records, key=lambda r: r.request.index)[:min_requests]
    classes = [r.request.cls for r in prefix]
    channel = [r.result for r in prefix
               if r.request.cls == "channel-n100" and r.result is not None]
    outcome.counts = {
        "prefix_trials": sum(r.request.params["trials"] for r in prefix),
        "polled_frames": sorted({r.frames for r in everything
                                 if not r.request.streamed}),
        "prefix_classes": {cls: classes.count(cls) for cls in CLASSES},
        "prefix_results": digest([r.result for r in prefix]),
        "channel_collisions": collisions(channel[0]) if channel else 0,
    }
    outcome.detail = {
        "warmup_s": warmup_s,
        "setup_samples": setups,
        "requests": len(records),
        "raw_p50_ms": median([r.latency for r in records]) * 1e3,
        "raw_p90_ms": p90([r.latency for r in records]) * 1e3,
        "reference_ms": [x * 1e3 for x in loop.refs],
        "class_p50_ms": {
            cls: median([r.latency * 1e3 for r in records
                         if r.request.cls == cls] or [0.0])
            for cls in CLASSES},
        "traced_requests": len(traced),
        "health": health,
    }

    lat = loop.latencies()
    if ctx.trace:
        layers = zero_layers(spec)
        layers.update(_serve_layers(traced, journal_root))
        layers["channel.collisions"] = outcome.counts["channel_collisions"]
        layers["workload.trials"] = (outcome.counts["prefix_trials"]
                                     / len(prefix))
        layers["serve.shed"] = health["stats"]["shed"]
        layers["serve.failed"] = health["stats"]["failed"]
        layers["trace.overhead_pct"] = overhead_pct(
            lat, traced_loop.latencies())
        layers["workload.warmup_s"] = warmup_s
        outcome.metrics = layers
    else:
        outcome.metrics = {
            "setup_s": median(setups) * speed_factor(refs),
            "peak_rss_mib": peak,
            "p50_ms": median(lat) * 1e3,
            "p90_ms": p90(lat) * 1e3,
            "ops_per_s": (sum(r.error is None for r in records)
                          / loop.scaled_busy()),
        }
    shutil.rmtree(base, ignore_errors=True)
    return outcome


def _serve_layers(traced: List[Record], journal_root: Path) -> dict:
    """Client-side spans of the traced phase, split at the frames."""
    def med_ms(values: List[float]) -> float:
        return median(values) * 1e3 if values else 0.0

    done = [r for r in traced if r.error is None]
    layers = {
        "serve.admit_ms": med_ms([r.accepted - r.sent for r in done
                                  if r.accepted is not None]),
        "serve.queue_ms": med_ms([r.running - r.accepted for r in done
                                  if r.running is not None]),
        "serve.run_ms": med_ms([r.end - r.running for r in done
                                if r.running is not None]),
        "serve.frames": sum(r.frames for r in traced) / len(traced),
    }
    sizes = []
    for record in done:
        path = journal_root / record.rid / "journal.jsonl"
        if path.exists():
            sizes.append(path.stat().st_size)
    layers["serve.journal_bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
    for cls in CLASSES:
        layers[f"serve.{cls}.p50_ms"] = med_ms(
            [r.latency for r in done if r.request.cls == cls])
    return layers
