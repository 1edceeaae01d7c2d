"""Experiment results as CSV / JSON files.

JSON documents that accumulate or gate history (the perf trajectory, sweep
snapshots) are written atomically — serialised to a temp file in the target
directory, fsync'd, then ``os.replace``d — so a crash mid-write can never
truncate a previously valid file.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, List, Union

from repro.errors import ConfigurationError
from repro.metrics.series import SeriesTable
from repro.workload.faultsweep import FaultSweepPoint
from repro.workload.robustness import RobustnessPoint

PathLike = Union[str, Path]

_FIELDS = ["table", "series", "n", "mean", "half_width", "confidence", "samples"]


def _atomic_write_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + replace.

    ``os.replace`` is atomic on POSIX within one filesystem, so readers
    (and crash recovery) only ever see the old or the new complete file.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".",
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def tables_to_csv(tables: Iterable[SeriesTable], path: PathLike) -> int:
    """Write the flattened records of ``tables`` as CSV.

    Returns:
        The number of data rows written.
    """
    records: List[dict] = []
    for table in tables:
        records.extend(table.to_records())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FIELDS)
        writer.writeheader()
        for rec in records:
            writer.writerow({k: rec.get(k, "") for k in _FIELDS})
    return len(records)


def tables_to_json(tables: Iterable[SeriesTable], path: PathLike) -> int:
    """Write the flattened records of ``tables`` as a JSON array.

    Returns:
        The number of records written.
    """
    records: List[dict] = []
    for table in tables:
        records.extend(table.to_records())
    _atomic_write_text(path, json.dumps(records, indent=2))
    return len(records)


ROBUSTNESS_FORMAT = "repro-robustness-sweep"
FAULT_SWEEP_FORMAT = "repro-fault-sweep"
_SWEEP_VERSION = 1


def _load_sweep_document(path: PathLike, fmt: str) -> List[dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ConfigurationError(f"{path} is not a {fmt} document")
    if doc.get("version") != _SWEEP_VERSION:
        raise ConfigurationError(
            f"unsupported {fmt} version {doc.get('version')!r}"
        )
    points = doc.get("points")
    if not isinstance(points, list):
        raise ConfigurationError(f"{path}: malformed points array")
    return points


def robustness_to_json(points: Iterable[RobustnessPoint],
                       path: PathLike) -> int:
    """Save a robustness sweep; inverse of :func:`robustness_from_json`.

    Returns:
        The number of points written.
    """
    records = [
        {"loss_probability": p.loss_probability,
         "delivery": dict(p.delivery), "forwards": dict(p.forwards)}
        for p in points
    ]
    _atomic_write_text(path, json.dumps(
        {"format": ROBUSTNESS_FORMAT, "version": _SWEEP_VERSION,
         "points": records},
        indent=2,
    ))
    return len(records)


def robustness_from_json(path: PathLike) -> List[RobustnessPoint]:
    """Load a robustness sweep saved by :func:`robustness_to_json`."""
    points: List[RobustnessPoint] = []
    for rec in _load_sweep_document(path, ROBUSTNESS_FORMAT):
        try:
            points.append(RobustnessPoint(
                loss_probability=float(rec["loss_probability"]),
                delivery={str(k): float(v)
                          for k, v in rec["delivery"].items()},
                forwards={str(k): float(v)
                          for k, v in rec["forwards"].items()},
            ))
        except (KeyError, TypeError, ValueError, AttributeError):
            raise ConfigurationError(
                f"{path}: malformed robustness point {rec!r}"
            ) from None
    return points


def fault_sweep_to_json(points: Iterable[FaultSweepPoint],
                        path: PathLike) -> int:
    """Save a fault sweep; inverse of :func:`fault_sweep_from_json`.

    Returns:
        The number of points written.
    """
    records = [
        {"loss_probability": p.loss_probability,
         "delivery": dict(p.delivery), "overhead": dict(p.overhead),
         "latency": dict(p.latency), "trials": p.trials}
        for p in points
    ]
    _atomic_write_text(path, json.dumps(
        {"format": FAULT_SWEEP_FORMAT, "version": _SWEEP_VERSION,
         "points": records},
        indent=2,
    ))
    return len(records)


def fault_sweep_from_json(path: PathLike) -> List[FaultSweepPoint]:
    """Load a fault sweep saved by :func:`fault_sweep_to_json`."""
    points: List[FaultSweepPoint] = []
    for rec in _load_sweep_document(path, FAULT_SWEEP_FORMAT):
        try:
            points.append(FaultSweepPoint(
                loss_probability=float(rec["loss_probability"]),
                delivery={str(k): float(v)
                          for k, v in rec["delivery"].items()},
                overhead={str(k): float(v)
                          for k, v in rec["overhead"].items()},
                latency={str(k): float(v)
                         for k, v in rec["latency"].items()},
                trials=int(rec["trials"]),
            ))
        except (KeyError, TypeError, ValueError, AttributeError):
            raise ConfigurationError(
                f"{path}: malformed fault sweep point {rec!r}"
            ) from None
    return points


PERF_TRAJECTORY_FORMAT = "repro-perf-trajectory"


def load_perf_trajectory(path: PathLike) -> List[dict]:
    """The recorded benchmark points of ``path``, oldest first.

    A missing file is an empty trajectory (the first benchmark run of a
    fresh checkout); a malformed one raises
    :class:`~repro.errors.ConfigurationError` — CI must not silently reset
    history.
    """
    if not Path(path).exists():
        return []
    points = _load_sweep_document(path, PERF_TRAJECTORY_FORMAT)
    for rec in points:
        if not isinstance(rec, dict) or not isinstance(rec.get("label"), str):
            raise ConfigurationError(
                f"{path}: malformed trajectory point {rec!r}"
            )
    return points


def append_perf_point(path: PathLike, point: dict) -> int:
    """Append one benchmark measurement to the trajectory at ``path``.

    ``point`` must carry a string ``"label"`` identifying the benchmark
    configuration (comparisons only ever look at points with the same
    label); everything else is the benchmark's own business.

    Returns:
        The trajectory length after appending.
    """
    if not isinstance(point.get("label"), str):
        raise ConfigurationError(
            f"a trajectory point needs a string 'label', got {point!r}"
        )
    points = load_perf_trajectory(path)
    points.append(point)
    _atomic_write_text(path, json.dumps(
        {"format": PERF_TRAJECTORY_FORMAT, "version": _SWEEP_VERSION,
         "points": points},
        indent=2,
    ) + "\n")
    return len(points)


def tables_to_markdown(tables: Iterable[SeriesTable],
                       path: PathLike) -> int:
    """Write each table as a GitHub-flavoured markdown table.

    Returns:
        The number of tables written.
    """
    blocks: List[str] = []
    count = 0
    for table in tables:
        count += 1
        xs = sorted({x for s in table.series for x in s.xs()})
        header = [table.x_label] + [s.label for s in table.series]
        lines = [f"### {table.title}", ""]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join("---" for _ in header) + "|")
        for x in xs:
            row = [f"{x:g}"]
            for s_ in table.series:
                point = next((p for p in s_.points if p.x == x), None)
                row.append("-" if point is None else f"{point.mean:.2f}")
            lines.append("| " + " | ".join(row) + " |")
        blocks.append("\n".join(lines))
    Path(path).write_text("\n\n".join(blocks) + "\n")
    return count
