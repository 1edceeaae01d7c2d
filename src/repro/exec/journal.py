"""Crash-safe run journaling: every folded trial durable, runs resumable.

A long Monte-Carlo sweep that dies — OOM kill, preempted spot instance,
``kill -9``, power loss — should cost the trials in flight, not the run.
:class:`RunJournal` makes the folded outcomes durable as they happen:

* **append-only JSONL** — one self-contained record per folded trial
  (``{"point": <label>, "index": <trial index>, "values": {...}}``),
  written with a trailing newline in a single ``write`` and **fsync'd**, so
  a record either exists completely or not at all;
* an **atomic header** — the first line carries the format marker and the
  *run key* (the caller's JSON description of everything that determines
  the trial streams: command, seed, environment).  The header is written
  via a temp file + ``os.replace``, so a journal file is never observable
  half-initialised, and a resume against a journal whose key differs
  raises :class:`~repro.errors.JournalError` instead of silently folding
  foreign trials;
* **torn-tail tolerance** — a crash mid-append leaves at most one partial
  final line; on open it is detected, dropped and truncated away.  A
  malformed record anywhere *else* is real corruption and raises, and so
  does a torn *header* (a file with no complete first line cannot carry a
  verifiable run key — the serve recovery scan treats that as "restart
  this run from nothing", see :mod:`repro.serve.recovery`);
* a **single-writer lock** — opening a journal takes an exclusive
  advisory lock (``flock``) on the file plus an in-process registration,
  and a second open of the same path raises :class:`JournalError` while
  the first is live.  Two writers interleaving fsync'd appends would
  corrupt the contiguous-prefix invariant that resume depends on, so the
  daemon's restart scan can trust that a lockable journal has no
  surviving owner.  A forked child (a process-pool worker) lets go of
  its copy of the lock at fork, so a killed writer's surviving workers
  never keep its journal locked.

Resume semantics (see :func:`repro.workload.trials.paired_trials`): the
journal of one experiment point always holds a contiguous prefix
``0..k-1`` of folded trials, because trials are folded — and journaled —
in trial-index order.  On resume the prefix is replayed into the fold and
the trial-stream spawn counter is advanced past it, so trial ``k`` onward
consumes exactly the child streams it would have consumed in an
uninterrupted run: the resumed estimates are **bit-identical**.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

try:  # POSIX advisory locking; degrade to in-process-only elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.errors import JournalError

PathLike = Union[str, Path]

JOURNAL_FORMAT = "repro-run-journal"
_JOURNAL_VERSION = 1

#: In-process single-writer registry: absolute path -> descriptor of each
#: open journal.  The flock below already covers same-process double opens
#: on POSIX; this registry keeps the guarantee where fcntl is unavailable.
_OPEN_PATHS: Dict[str, int] = {}
_OPEN_LOCK = threading.Lock()


def _release_inherited_locks() -> None:
    """Fork hook: drop the child's share of its parent's journal locks.

    A flock belongs to the open file description, which fork shares, so
    a pool worker would otherwise hold the lock for as long as it lives,
    even after its parent is killed and a resume wants the journal back.
    Re-pointing the child's descriptor at ``/dev/null`` closes its
    reference without unlocking the parent's.  Runs in the child's only
    thread, so it must not wait on ``_OPEN_LOCK``.
    """
    if not _OPEN_PATHS:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    for fd in _OPEN_PATHS.values():
        os.dup2(devnull, fd)
    os.close(devnull)
    _OPEN_PATHS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_release_inherited_locks)


def _normalise_key(key: Mapping) -> dict:
    """A run key as it round-trips through JSON (tuples become lists)."""
    try:
        return json.loads(json.dumps(key, sort_keys=True))
    except (TypeError, ValueError) as exc:
        raise JournalError(f"run key is not JSON-serialisable: {exc}") from None


class RunJournal:
    """The durable trial log of one run; see the module docstring.

    Construct through :meth:`open`; hand per-point views from
    :meth:`point` to :func:`~repro.workload.trials.paired_trials`.
    """

    def __init__(self, path: Path, run_key: dict,
                 records: Dict[str, Dict[int, Mapping[str, float]]]) -> None:
        """Internal constructor — use :meth:`open`."""
        self.path = path
        self.run_key = run_key
        self._records = records
        self._locked_path: Optional[str] = None
        self._fh = open(path, "a", encoding="utf-8")
        try:
            self._acquire_writer_lock()
        except BaseException:
            self._fh.close()
            self._fh = None
            raise

    def _acquire_writer_lock(self) -> None:
        """Become the journal's single writer or raise :class:`JournalError`."""
        resolved = str(Path(self.path).resolve())
        with _OPEN_LOCK:
            if resolved in _OPEN_PATHS:
                raise JournalError(
                    f"journal {self.path} is already open for writing in "
                    f"this process; a journal has exactly one writer"
                )
            _OPEN_PATHS[resolved] = self._fh.fileno()
        if fcntl is not None:
            try:
                fcntl.flock(self._fh.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                with _OPEN_LOCK:
                    _OPEN_PATHS.pop(resolved, None)
                raise JournalError(
                    f"journal {self.path} is locked by another writer "
                    f"(live process); refusing the concurrent open"
                ) from None
        self._locked_path = resolved

    # -- lifecycle --------------------------------------------------------

    @classmethod
    def open(cls, path: PathLike, run_key: Mapping, *,
             resume: bool = False) -> "RunJournal":
        """Open (creating or resuming) the journal at ``path``.

        Args:
            path: Journal file location.
            run_key: JSON-serialisable description of the run
                configuration; a resumed journal must carry an equal key.
            resume: If ``True``, an existing journal is validated, its
                torn tail (if any) truncated, and its records become
                replayable; a missing file simply starts fresh.  If
                ``False``, an existing file is refused — mixing two runs
                in one journal is never what anyone wants.

        Raises:
            JournalError: Key mismatch, version mismatch, or corruption
                that is not a torn tail.
        """
        path = Path(path)
        key = _normalise_key(run_key)
        if not path.exists():
            cls._create(path, key)
            return cls(path, key, {})
        if not resume:
            raise JournalError(
                f"journal {path} already exists; resume it with --resume "
                f"or remove the file to start over"
            )
        records = cls._load(path, key)
        return cls(path, key, records)

    @staticmethod
    def _create(path: Path, key: dict) -> None:
        """Atomically materialise a fresh journal holding only the header."""
        header = json.dumps(
            {"format": JOURNAL_FORMAT, "version": _JOURNAL_VERSION,
             "run": key},
            sort_keys=True, separators=(",", ":"),
        )
        fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".",
                                   prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(header + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @staticmethod
    def _load(path: Path,
              key: dict) -> Dict[str, Dict[int, Mapping[str, float]]]:
        """Parse an existing journal, truncating a torn tail in place."""
        raw = path.read_bytes()
        newline = raw.find(b"\n")
        if newline < 0:
            raise JournalError(f"{path} has no complete header line")
        try:
            header = json.loads(raw[:newline].decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise JournalError(f"{path} header is not JSON: {exc}") from None
        if not isinstance(header, dict) or \
                header.get("format") != JOURNAL_FORMAT:
            raise JournalError(f"{path} is not a {JOURNAL_FORMAT} file")
        if header.get("version") != _JOURNAL_VERSION:
            raise JournalError(
                f"unsupported journal version {header.get('version')!r}"
            )
        if header.get("run") != key:
            raise JournalError(
                f"journal {path} was written by a different run "
                f"configuration; refusing to resume (journal key "
                f"{header.get('run')!r} != current {key!r})"
            )
        records: Dict[str, Dict[int, Mapping[str, float]]] = {}
        offset = newline + 1
        good_end = offset
        body = raw[offset:]
        lines = body.split(b"\n")
        # A complete record always ends with the newline written in the
        # same append; bytes after the final newline are a torn tail.
        complete, tail = lines[:-1], lines[-1]
        for i, line in enumerate(complete):
            if not line.strip():
                good_end += len(line) + 1
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
                point = rec["point"]
                index = int(rec["index"])
                values = {str(k): float(v)
                          for k, v in rec["values"].items()}
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                    TypeError, ValueError, AttributeError):
                if i == len(complete) - 1 and not tail:
                    # Torn tail that happened to include a newline-free
                    # flush boundary: drop the unparseable final line.
                    break
                raise JournalError(
                    f"{path}: corrupt journal record at byte {good_end}: "
                    f"{line[:120]!r}"
                ) from None
            records.setdefault(str(point), {})[index] = values
            good_end += len(line) + 1
        if good_end < len(raw):
            with open(path, "r+b") as fh:
                fh.truncate(good_end)
        return records

    def close(self) -> None:
        """Flush and close the journal file, releasing the writer lock
        (idempotent)."""
        # Unregister first: the fork hook must never see a descriptor
        # number that close has already freed for reuse.
        if self._locked_path is not None:
            with _OPEN_LOCK:
                _OPEN_PATHS.pop(self._locked_path, None)
            self._locked_path = None
        if self._fh is not None:
            self._fh.close()  # closing the fd also drops the flock
            self._fh = None

    def __enter__(self) -> "RunJournal":
        """Context-manager entry: the open journal itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the journal."""
        self.close()

    # -- record access ----------------------------------------------------

    def record(self, point: str, index: int,
               values: Mapping[str, float]) -> None:
        """Durably append one folded trial (idempotent per (point, index))."""
        if self._fh is None:
            raise JournalError(f"journal {self.path} is closed")
        existing = self._records.get(point, {})
        if index in existing:
            return
        clean = {str(k): float(v) for k, v in values.items()}
        line = json.dumps(
            {"point": point, "index": index, "values": clean},
            separators=(",", ":"),
        )
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._records.setdefault(point, {})[index] = clean

    def replay(self, point: str) -> List[Mapping[str, float]]:
        """The journaled prefix of ``point``, in trial-index order.

        Raises:
            JournalError: The recorded indices are not the contiguous
                prefix ``0..k-1`` (folding order makes gaps impossible in
                an honest journal, so a gap means corruption).
        """
        recorded = self._records.get(point, {})
        values: List[Mapping[str, float]] = []
        for i in range(len(recorded)):
            if i not in recorded:
                raise JournalError(
                    f"journal {self.path} point {point!r} has a gap at "
                    f"trial {i} ({len(recorded)} records)"
                )
            values.append(recorded[i])
        return values

    def point(self, label: str) -> "PointJournal":
        """A per-experiment-point view bound to ``label``."""
        return PointJournal(self, label)

    @property
    def points(self) -> List[str]:
        """Labels with at least one journaled trial, in insertion order."""
        return list(self._records)

    def counts(self) -> Mapping[str, int]:
        """Journaled trial count per point label."""
        return {point: len(recs) for point, recs in self._records.items()}


class PointJournal:
    """One experiment point's slice of a :class:`RunJournal`.

    The object :func:`~repro.workload.trials.paired_trials` consumes:
    ``replay_prefix()`` before the first wave, ``record()`` after every
    fold.
    """

    def __init__(self, journal: RunJournal, label: str) -> None:
        """Bind ``label`` within ``journal``."""
        self.journal = journal
        self.label = label

    def replay_prefix(self) -> List[Mapping[str, float]]:
        """Previously folded trials ``0..k-1`` of this point, in order."""
        return self.journal.replay(self.label)

    def record(self, index: int, values: Mapping[str, float]) -> None:
        """Durably journal trial ``index`` of this point."""
        self.journal.record(self.label, index, values)


def open_journal(path: PathLike, run_key: Mapping, *,
                 resume: bool = False) -> Optional[RunJournal]:
    """CLI convenience: ``RunJournal.open`` for a truthy ``path``, else None."""
    if not path:
        return None
    return RunJournal.open(path, run_key, resume=resume)
