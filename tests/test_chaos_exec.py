"""Kill/resume chaos tests: SIGKILL a journaled run, resume, compare bits.

These drive ``tests/chaos_exec.py`` as a real subprocess — the parent
process of a journaled run dies with ``SIGKILL`` (no atexit, no flushing
grace) and a resumed invocation must finish with estimates byte-identical
to an undisturbed reference run; and the process pool of a SIGKILLed
parent must not outlive it.  Subprocess startup makes them slow, so
the whole module is ``slow``-marked and runs in the ``make chaos`` /
CI ``chaos-smoke`` lane rather than the default suite.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

DRIVER = Path(__file__).resolve().parent / "chaos_exec.py"
SRC = Path(__file__).resolve().parent.parent / "src"


def driver_cmd(*extra):
    return [sys.executable, str(DRIVER), *extra]


def driver_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_driver(*extra, check=True):
    proc = subprocess.run(driver_cmd(*extra), env=driver_env(),
                          capture_output=True, text=True, timeout=120)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"driver failed ({proc.returncode}): {proc.stderr}"
        )
    return proc


def reference_estimates(tmp_path, *, trials, seed):
    out = tmp_path / "reference.json"
    marker = tmp_path / "ref-markers"
    marker.mkdir()
    run_driver("--no-journal", "--journal", str(tmp_path / "unused.jsonl"),
               "--marker-dir", str(marker), "--trials", str(trials),
               "--seed", str(seed), "--out", str(out))
    return out.read_bytes()


class TestSelfKillResume:
    """The run SIGKILLs itself mid-trial; a resume finishes the job."""

    def test_self_sigkill_and_resume_is_bit_identical(self, tmp_path):
        trials, seed = 12, 7
        reference = reference_estimates(tmp_path, trials=trials, seed=seed)

        journal = tmp_path / "run.jsonl"
        marker = tmp_path / "markers"
        marker.mkdir()
        first = run_driver(
            "--journal", str(journal), "--marker-dir", str(marker),
            "--trials", str(trials), "--seed", str(seed),
            "--crash-index", "9", "--out", str(tmp_path / "never.json"),
            check=False,
        )
        assert first.returncode == -signal.SIGKILL
        assert not (tmp_path / "never.json").exists()
        # Folding (and journaling) is per wave: the first 8-trial wave is
        # durable, the second wave died at trial 9 before it could fold.
        assert len(journal.read_text().splitlines()) == 1 + 8

        out = tmp_path / "resumed.json"
        run_driver(
            "--journal", str(journal), "--marker-dir", str(marker),
            "--trials", str(trials), "--seed", str(seed),
            "--crash-index", "9", "--resume", "--out", str(out),
        )
        assert out.read_bytes() == reference

    def test_rerun_without_resume_is_refused(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        marker = tmp_path / "markers"
        marker.mkdir()
        run_driver("--journal", str(journal), "--marker-dir", str(marker),
                   "--trials", "4", "--seed", "1")
        second = run_driver(
            "--journal", str(journal), "--marker-dir", str(marker),
            "--trials", "4", "--seed", "1", check=False,
        )
        assert second.returncode != 0
        assert "resume" in second.stderr


class TestExternalKillResume:
    """An outside SIGKILL strikes mid-run; any backend resumes the run."""

    TRIALS = 12
    SEED = 19

    @pytest.mark.parametrize("backend,parallel", [
        ("serial", 1), ("process", 2),
    ])
    def test_external_sigkill_and_resume(self, tmp_path, backend, parallel):
        reference = reference_estimates(tmp_path, trials=self.TRIALS,
                                        seed=self.SEED)
        journal = tmp_path / "run.jsonl"
        marker = tmp_path / "markers"
        marker.mkdir()
        proc = subprocess.Popen(
            driver_cmd("--journal", str(journal),
                       "--marker-dir", str(marker),
                       "--trials", str(self.TRIALS),
                       "--seed", str(self.SEED),
                       "--backend", backend, "--parallel", str(parallel),
                       "--trial-sleep", "0.25"),
            env=driver_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Kill once the journal proves the run is mid-stream: some
            # trials durable, more still to come.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    pytest.fail("driver finished before it could be killed; "
                                "raise --trial-sleep")
                if journal.exists() and \
                        len(journal.read_text().splitlines()) >= 3:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("journal never accumulated records")
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        recorded = len(journal.read_text().splitlines()) - 1
        assert 0 < recorded < self.TRIALS

        out = tmp_path / "resumed.json"
        run_driver(
            "--journal", str(journal), "--marker-dir", str(marker),
            "--trials", str(self.TRIALS), "--seed", str(self.SEED),
            "--backend", backend, "--parallel", str(parallel),
            "--resume", "--out", str(out),
        )
        assert out.read_bytes() == reference


# Starts a two-worker pool, runs one wave so both workers exist, prints
# their pids and SIGKILLs itself: the pool never gets shut down.
ORPHAN_CHILD = """
import os, signal
import numpy as np
from chaos_exec import noise_spec
from repro.exec.backends import ProcessBackend

backend = ProcessBackend(2)
backend.run_wave(noise_spec(0.0, m=1.0), 0, np.random.SeedSequence(0).spawn(4))
print(*sorted(p.pid for p in backend._pool._processes.values()), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _alive(pid):
    """Whether ``pid`` runs (a zombie nobody reaped yet counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


class TestOrphanedWorkers:
    """Pool workers end soon after their parent is SIGKILLed."""

    def test_workers_exit_when_parent_is_killed(self):
        env = driver_env()
        env["PYTHONPATH"] = os.pathsep.join(
            [str(DRIVER.parent), env["PYTHONPATH"]])
        proc = subprocess.Popen([sys.executable, "-c", ORPHAN_CHILD],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        pids = []
        try:
            # Read the pid line only: orphans that outlive the parent keep
            # the pipe open, so waiting for EOF would hang.
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "child never reported its worker pids"
            pids = [int(p) for p in proc.stdout.readline().split()]
            assert len(pids) == 2
            assert proc.wait(timeout=60) == -signal.SIGKILL
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(_alive, pids)):
                time.sleep(0.1)
            assert not [p for p in pids if _alive(p)], \
                "pool workers outlived their SIGKILLed parent"
        finally:
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
