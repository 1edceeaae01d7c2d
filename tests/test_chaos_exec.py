"""Kill/resume chaos tests: SIGKILL a journaled run, resume, compare bits.

These drive ``tests/chaos_exec.py`` as a real subprocess — the parent
process of a journaled run dies with ``SIGKILL`` (no atexit, no flushing
grace) and a resumed invocation must finish with estimates byte-identical
to an undisturbed reference run.  Subprocess startup makes them slow, so
the whole module is ``slow``-marked and runs in the ``make chaos`` /
CI ``chaos-smoke`` lane rather than the default suite.
"""

import json
import os
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
