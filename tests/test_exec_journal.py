"""Tests for crash-safe run journaling and journaled-trial resume."""

import json

import pytest

from repro.errors import JournalError
from repro.exec.journal import (
    JOURNAL_FORMAT,
    PointJournal,
    RunJournal,
    open_journal,
)
from repro.exec.spec import TrialSpec
from repro.workload.trials import paired_trials

KEY = {"command": "test", "seed": 7}


def chaos_spec(marker_dir):
    """An injection-free chaos spec (a pure deterministic metric stream)."""
    return TrialSpec.create("chaos_exec:make_chaos_trial",
                            marker_dir=str(marker_dir))


class TestLifecycle:
    def test_fresh_journal_has_header_and_no_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.open(path, KEY) as journal:
            assert journal.points == []
            assert journal.counts() == {}
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == JOURNAL_FORMAT
        assert header["run"] == KEY

    def test_existing_file_refused_without_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal.open(path, KEY).close()
        with pytest.raises(JournalError, match="resume"):
            RunJournal.open(path, KEY)

    def test_record_and_resume_replays_in_order(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.open(path, KEY) as journal:
            journal.record("p", 0, {"m": 1.0})
            journal.record("p", 1, {"m": 2.5})
            journal.record("q", 0, {"m": 9.0})
        with RunJournal.open(path, KEY, resume=True) as journal:
            assert journal.replay("p") == [{"m": 1.0}, {"m": 2.5}]
            assert journal.replay("q") == [{"m": 9.0}]
            assert journal.counts() == {"p": 2, "q": 1}

    def test_record_is_idempotent_per_point_and_index(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.open(path, KEY) as journal:
            journal.record("p", 0, {"m": 1.0})
            journal.record("p", 0, {"m": 999.0})  # ignored: already durable
        with RunJournal.open(path, KEY, resume=True) as journal:
            assert journal.replay("p") == [{"m": 1.0}]
        assert len(path.read_text().splitlines()) == 2  # header + 1 record

    def test_record_after_close_raises(self, tmp_path):
        journal = RunJournal.open(tmp_path / "run.jsonl", KEY)
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.record("p", 0, {"m": 1.0})
        journal.close()  # idempotent

    def test_key_mismatch_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal.open(path, KEY).close()
        with pytest.raises(JournalError, match="different run"):
            RunJournal.open(path, {"command": "test", "seed": 8},
                            resume=True)

    def test_key_normalises_through_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal.open(path, {"losses": (0.1, 0.2)}).close()
        # Tuples become lists in JSON; the same run must still match.
        RunJournal.open(path, {"losses": [0.1, 0.2]}, resume=True).close()

    def test_unserialisable_key_raises(self, tmp_path):
        with pytest.raises(JournalError, match="JSON"):
            RunJournal.open(tmp_path / "run.jsonl", {"bad": object()})

    def test_open_journal_none_for_falsy_path(self, tmp_path):
        assert open_journal("", KEY) is None
        assert open_journal(None, KEY) is None
        journal = open_journal(tmp_path / "run.jsonl", KEY)
        assert isinstance(journal, RunJournal)
        journal.close()


class TestSingleWriter:
    def test_concurrent_open_of_same_path_is_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        first = RunJournal.open(path, KEY)
        try:
            with pytest.raises(JournalError,
                               match="one writer|another writer"):
                RunJournal.open(path, KEY, resume=True)
        finally:
            first.close()
        # Released on close: the next open succeeds.
        RunJournal.open(path, KEY, resume=True).close()

    def test_lock_covers_path_aliases(self, tmp_path):
        path = tmp_path / "run.jsonl"
        first = RunJournal.open(path, KEY)
        try:
            alias = tmp_path / "." / "run.jsonl"
            with pytest.raises(JournalError):
                RunJournal.open(alias, KEY, resume=True)
        finally:
            first.close()

    def test_pool_workers_do_not_inherit_the_lock(self, tmp_path):
        """A worker forked while the journal is open keeps running after
        its wave; it must not keep the journal locked once closed."""
        from repro.exec.backends import ProcessBackend

        path = tmp_path / "run.jsonl"
        backend = ProcessBackend(1)
        try:
            with RunJournal.open(path, KEY) as journal:
                paired_trials(spec=chaos_spec(tmp_path), min_samples=2,
                              max_samples=2, rng=0, backend=backend,
                              journal=journal.point("p"))
            assert backend._pool is not None  # the worker is still alive
            RunJournal.open(path, KEY, resume=True).close()
        finally:
            backend.close()

    def test_failed_open_does_not_leak_the_lock(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal.open(path, KEY).close()
        with pytest.raises(JournalError):  # key mismatch after load
            RunJournal.open(path, {"other": 1}, resume=True)
        # The refused open held nothing: a correct open still works.
        RunJournal.open(path, KEY, resume=True).close()

    def test_distinct_paths_are_independent(self, tmp_path):
        a = RunJournal.open(tmp_path / "a.jsonl", KEY)
        b = RunJournal.open(tmp_path / "b.jsonl", KEY)
        a.close()
        b.close()


class TestCorruption:
    def _journal_with_records(self, tmp_path, n=3):
        path = tmp_path / "run.jsonl"
        with RunJournal.open(path, KEY) as journal:
            for i in range(n):
                journal.record("p", i, {"m": float(i)})
        return path

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        path = self._journal_with_records(tmp_path)
        with open(path, "a") as fh:
            fh.write('{"point":"p","index":3,"val')  # crash mid-append
        with RunJournal.open(path, KEY, resume=True) as journal:
            assert journal.counts() == {"p": 3}
        assert not path.read_text().endswith('"val')  # truncated away
        # The truncated journal is clean: a third open sees no tail.
        RunJournal.open(path, KEY, resume=True).close()

    def test_torn_tail_with_trailing_newline_is_dropped(self, tmp_path):
        path = self._journal_with_records(tmp_path)
        with open(path, "a") as fh:
            fh.write('{"point":"p","index"\n')
        with RunJournal.open(path, KEY, resume=True) as journal:
            assert journal.counts() == {"p": 3}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = self._journal_with_records(tmp_path)
        lines = path.read_text().splitlines()
        lines[2] = "NOT JSON"  # a record with valid records after it
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            RunJournal.open(path, KEY, resume=True)

    def test_headerless_file_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("no header here")
        with pytest.raises(JournalError):
            RunJournal.open(path, KEY, resume=True)

    def test_torn_header_raises_clean_journal_error(self, tmp_path):
        # A header torn mid-write (no newline ever made it to disk).  The
        # atomic create makes this impossible for journals we wrote, but
        # the daemon's restart scan must get a classifiable JournalError —
        # never a JSON traceback — so it can restart the run from nothing.
        path = tmp_path / "run.jsonl"
        good = RunJournal.open(tmp_path / "donor.jsonl", KEY)
        good.close()
        header = (tmp_path / "donor.jsonl").read_bytes().rstrip(b"\n")
        path.write_bytes(header[: len(header) // 2])
        with pytest.raises(JournalError, match="header"):
            RunJournal.open(path, KEY, resume=True)
        # Recovery path: delete the torn file and start over.
        path.unlink()
        RunJournal.open(path, KEY).close()

    def test_wrong_format_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(JournalError, match="not a"):
            RunJournal.open(path, KEY, resume=True)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps(
            {"format": JOURNAL_FORMAT, "version": 99, "run": KEY}) + "\n")
        with pytest.raises(JournalError, match="version"):
            RunJournal.open(path, KEY, resume=True)

    def test_gap_in_indices_raises_on_replay(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.open(path, KEY) as journal:
            journal.record("p", 0, {"m": 0.0})
            journal.record("p", 2, {"m": 2.0})  # 1 missing
            with pytest.raises(JournalError, match="gap"):
                journal.replay("p")


class TestPointJournal:
    def test_point_view_round_trips(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal.open(path, KEY) as journal:
            point = journal.point("fig6:d=6:n=20")
            assert isinstance(point, PointJournal)
            assert point.replay_prefix() == []
            point.record(0, {"m": 0.5})
            point.record(1, {"m": 1.5})
        with RunJournal.open(path, KEY, resume=True) as journal:
            point = journal.point("fig6:d=6:n=20")
            assert point.replay_prefix() == [{"m": 0.5}, {"m": 1.5}]


class TestPairedTrialsResume:
    """The resume contract: interrupted runs finish bit-identically."""

    TRIALS = 10
    SEED = 23

    def _run(self, marker_dir, journal=None, backend="serial"):
        return paired_trials(
            spec=chaos_spec(marker_dir), min_samples=self.TRIALS,
            max_samples=self.TRIALS, rng=self.SEED, backend=backend,
            journal=journal,
        )

    def test_journaled_run_matches_plain_run(self, tmp_path):
        reference = self._run(tmp_path)
        with RunJournal.open(tmp_path / "run.jsonl", KEY) as journal:
            outcome = self._run(tmp_path, journal=journal.point("p"))
        assert outcome.estimates == reference.estimates
        assert outcome.trials == reference.trials

    @pytest.mark.parametrize("cut", [1, 4, 9, 10])
    def test_resume_from_any_prefix_is_bit_identical(self, tmp_path, cut):
        reference = self._run(tmp_path)
        path = tmp_path / "run.jsonl"
        with RunJournal.open(path, KEY) as journal:
            self._run(tmp_path, journal=journal.point("p"))
        # Simulate a crash after `cut` folded trials: keep the header and
        # the first `cut` records, drop the rest.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1 + cut]) + "\n")
        with RunJournal.open(path, KEY, resume=True) as journal:
            resumed = self._run(tmp_path, journal=journal.point("p"))
        assert resumed.estimates == reference.estimates
        assert resumed.trials == reference.trials

    def test_resume_replays_without_rerunning(self, tmp_path):
        """A fully journaled point replays entirely — no trials re-run."""
        path = tmp_path / "run.jsonl"
        with RunJournal.open(path, KEY) as journal:
            self._run(tmp_path, journal=journal.point("p"))
        with RunJournal.open(path, KEY, resume=True) as journal:
            # A spec whose every trial would fail proves nothing ran live.
            spec = TrialSpec.create("test_exec_supervise:make_always_fail")
            outcome = paired_trials(
                spec=spec, min_samples=self.TRIALS,
                max_samples=self.TRIALS, rng=self.SEED, backend="serial",
                journal=journal.point("p"),
            )
        assert outcome.trials == self.TRIALS

    def test_resume_on_different_backend_is_bit_identical(self, tmp_path):
        reference = self._run(tmp_path)
        path = tmp_path / "run.jsonl"
        with RunJournal.open(path, KEY) as journal:
            self._run(tmp_path, journal=journal.point("p"))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1 + 5]) + "\n")
        with RunJournal.open(path, KEY, resume=True) as journal:
            resumed = self._run(tmp_path, journal=journal.point("p"),
                                backend="process")
        assert resumed.estimates == reference.estimates

    def test_legacy_default_path_is_promoted_to_serial(self, tmp_path):
        """``backend=None, parallel=1`` + journal runs the serial backend
        on spawned streams, so journal indices line up with child streams."""
        with RunJournal.open(tmp_path / "run.jsonl", KEY) as journal:
            outcome = paired_trials(
                spec=chaos_spec(tmp_path), min_samples=4, max_samples=4,
                rng=3, journal=journal.point("p"),
            )
            assert journal.counts() == {"p": 4}
        reference = paired_trials(
            spec=chaos_spec(tmp_path), min_samples=4, max_samples=4,
            rng=3, backend="serial",
        )
        assert outcome.estimates == reference.estimates
