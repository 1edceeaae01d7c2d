"""Experiment series containers and plain-text table rendering.

A *series* is one curve of a paper figure — e.g. "static backbone, 2.5-hop,
d=6" — as a list of ``(x, estimate)`` points.  A :class:`SeriesTable` groups
the series of one sub-figure and renders the aligned text table the
benchmarks print (the library has no plotting dependency by design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.metrics.confidence import ConfidenceInterval


@dataclass(frozen=True, slots=True)
class ExperimentPoint:
    """One measured point of a series."""

    x: float
    estimate: ConfidenceInterval

    @property
    def mean(self) -> float:
        """Point estimate."""
        return self.estimate.mean


@dataclass
class ExperimentSeries:
    """One labelled curve."""

    label: str
    points: List[ExperimentPoint] = field(default_factory=list)

    def add(self, x: float, estimate: ConfidenceInterval) -> None:
        """Append a point (x values must be strictly increasing)."""
        if self.points and x <= self.points[-1].x:
            raise ConfigurationError(
                f"series {self.label!r}: x={x} not increasing past "
                f"{self.points[-1].x}"
            )
        self.points.append(ExperimentPoint(x=x, estimate=estimate))

    def xs(self) -> List[float]:
        """The x coordinates."""
        return [p.x for p in self.points]

    def as_dict(self) -> Dict[float, float]:
        """x -> mean mapping."""
        return {p.x: p.mean for p in self.points}


@dataclass
class SeriesTable:
    """The series of one (sub-)figure plus table rendering.

    Attributes:
        title: Figure caption, e.g. ``"Figure 6(a): avg CDS size, d=6"``.
        x_label: Name of the x axis (``n`` in the paper).
        series: The curves, in display order.
    """

    title: str
    x_label: str
    series: List[ExperimentSeries] = field(default_factory=list)

    def add_series(self, series: ExperimentSeries) -> None:
        """Attach a curve."""
        self.series.append(series)

    def get(self, label: str) -> ExperimentSeries:
        """Look up a curve by label."""
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labelled {label!r} in {self.title!r}")

    def render(self, precision: int = 2, ci: bool = False) -> str:
        """Render an aligned plain-text table.

        Args:
            precision: Decimal places for means.
            ci: Also print the ± half-widths.

        Returns:
            A multi-line string; the first line is the title.
        """
        xs: List[float] = sorted({x for s in self.series for x in s.xs()})
        headers = [self.x_label] + [s.label for s in self.series]
        rows: List[List[str]] = []
        for x in xs:
            row = [f"{x:g}"]
            for s in self.series:
                point = next((p for p in s.points if p.x == x), None)
                if point is None:
                    row.append("-")
                elif ci:
                    row.append(
                        f"{point.mean:.{precision}f}±{point.estimate.half_width:.{precision}f}"
                    )
                else:
                    row.append(f"{point.mean:.{precision}f}")
            rows.append(row)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [self.title]
        lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_records(self) -> List[Dict[str, object]]:
        """Flatten to records for CSV/JSON export."""
        out: List[Dict[str, object]] = []
        for s in self.series:
            for p in s.points:
                out.append(
                    {
                        "table": self.title,
                        "series": s.label,
                        self.x_label: p.x,
                        "mean": p.estimate.mean,
                        "half_width": p.estimate.half_width,
                        "confidence": p.estimate.confidence,
                        "samples": p.estimate.samples,
                    }
                )
        return out
