"""Tests for series tables and summary statistics."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.confidence import ConfidenceInterval
from repro.metrics.series import ExperimentPoint, ExperimentSeries, SeriesTable
from repro.metrics.stats import linear_fit, summary


def ci(mean, hw=0.5):
    return ConfidenceInterval(mean=mean, half_width=hw, confidence=0.99,
                              samples=30)


class TestExperimentSeries:
    def test_add_and_query(self):
        s = ExperimentSeries(label="static")
        s.add(20, ci(10.0))
        s.add(40, ci(20.0))
        assert s.xs() == [20, 40]
        assert [p.mean for p in s.points] == [10.0, 20.0]
        assert s.as_dict() == {20: 10.0, 40: 20.0}

    def test_x_must_increase(self):
        s = ExperimentSeries(label="x")
        s.add(20, ci(1.0))
        with pytest.raises(ConfigurationError):
            s.add(20, ci(2.0))

    def test_point_mean(self):
        assert ExperimentPoint(x=1, estimate=ci(7.0)).mean == 7.0


class TestSeriesTable:
    def make_table(self):
        t = SeriesTable(title="Figure X", x_label="n")
        a = ExperimentSeries(label="alg-a")
        a.add(20, ci(10.0))
        a.add(40, ci(20.0))
        b = ExperimentSeries(label="alg-b")
        b.add(20, ci(12.0))
        t.add_series(a)
        t.add_series(b)
        return t

    def test_render_contains_all_cells(self):
        text = self.make_table().render()
        assert "Figure X" in text
        assert "alg-a" in text and "alg-b" in text
        assert "10.00" in text and "12.00" in text
        # Missing point rendered as '-'.
        assert "-" in text.splitlines()[-1]

    def test_render_with_ci(self):
        text = self.make_table().render(ci=True)
        assert "±" in text

    def test_get_series(self):
        t = self.make_table()
        assert [p.mean for p in t.get("alg-a").points] == [10.0, 20.0]
        with pytest.raises(KeyError):
            t.get("nope")

    def test_to_records(self):
        recs = self.make_table().to_records()
        assert len(recs) == 3
        assert recs[0]["series"] == "alg-a"
        assert recs[0]["n"] == 20
        assert recs[0]["mean"] == 10.0


class TestSummary:
    def test_basic(self):
        s = summary([4.0, 1.0, 3.0, 2.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.median == 2.5

    def test_odd_median(self):
        assert summary([3.0, 1.0, 2.0]).median == 2.0

    def test_single_value(self):
        s = summary([7.0])
        assert s.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summary([])


class TestLinearFit:
    def test_perfect_line(self):
        slope, intercept, r2 = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_noisy_line_high_r2(self):
        import numpy as np

        rng = np.random.default_rng(0)
        xs = list(range(50))
        ys = [2.0 * x + 1.0 + rng.normal(0, 0.5) for x in xs]
        slope, _b, r2 = linear_fit(xs, ys)
        assert slope == pytest.approx(2.0, rel=0.05)
        assert r2 > 0.99

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            linear_fit([1], [1])
        with pytest.raises(ConfigurationError):
            linear_fit([1, 2], [1])
        with pytest.raises(ConfigurationError):
            linear_fit([2, 2], [1, 3])

    def test_constant_y(self):
        _s, _b, r2 = linear_fit([1, 2, 3], [5, 5, 5])
        assert r2 == 1.0
