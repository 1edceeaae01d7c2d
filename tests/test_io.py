"""Tests for network JSON and results serialisation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.graph.generators import random_geometric_network
from repro.io.network_json import load_network, save_network
from repro.io.results import tables_to_csv, tables_to_json
from repro.metrics.confidence import ConfidenceInterval
from repro.metrics.series import ExperimentSeries, SeriesTable


class TestNetworkJson:
    def test_roundtrip(self, tmp_path):
        net = random_geometric_network(20, 6.0, rng=0)
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.graph == net.graph
        assert loaded.radius == net.radius
        assert loaded.area == net.area
        for v, (x, y) in net.positions.items():
            assert loaded.positions[v] == pytest.approx((x, y))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_network(p)

    def test_wrong_format(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigurationError, match="not a repro network"):
            load_network(p)

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "v99.json"
        p.write_text(json.dumps({"format": "repro-network", "version": 99}))
        with pytest.raises(ConfigurationError, match="unsupported version"):
            load_network(p)

    def test_malformed_nodes(self, tmp_path):
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps({
            "format": "repro-network", "version": 1, "radius": 1.0,
            "area": {"width": 10, "height": 10},
            "nodes": [{"id": 0}],
        }))
        with pytest.raises(ConfigurationError, match="malformed"):
            load_network(p)


def sample_table():
    t = SeriesTable(title="T", x_label="n")
    s = ExperimentSeries(label="alg")
    s.add(20, ConfidenceInterval(mean=5.0, half_width=0.2,
                                 confidence=0.99, samples=30))
    s.add(40, ConfidenceInterval(mean=9.0, half_width=0.3,
                                 confidence=0.99, samples=31))
    t.add_series(s)
    return t


class TestResults:
    def test_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = tables_to_csv([sample_table()], path)
        assert rows == 2
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("table,series,n,mean")
        assert len(lines) == 3
        assert "alg" in lines[1]

    def test_json(self, tmp_path):
        path = tmp_path / "out.json"
        count = tables_to_json([sample_table()], path)
        assert count == 2
        records = json.loads(path.read_text())
        assert records[0]["mean"] == 5.0
        assert records[1]["samples"] == 31


class TestSweepRoundTrips:
    def robustness_points(self):
        from repro.workload.robustness import RobustnessPoint

        return [
            RobustnessPoint(loss_probability=0.0,
                            delivery={"flooding": 1.0, "static": 1.0},
                            forwards={"flooding": 30.0, "static": 14.5}),
            RobustnessPoint(loss_probability=0.2,
                            delivery={"flooding": 0.93, "static": 0.81},
                            forwards={"flooding": 27.1, "static": 11.2}),
        ]

    def fault_points(self):
        from repro.workload.faultsweep import FaultSweepPoint

        return [
            FaultSweepPoint(loss_probability=0.2,
                            delivery={"si": 0.8, "reliable-si": 1.0},
                            overhead={"si": 0.4, "reliable-si": 2.2},
                            latency={"si": 4.0, "reliable-si": 9.5},
                            trials=8),
        ]

    def test_robustness_roundtrip(self, tmp_path):
        from repro.io.results import robustness_from_json, robustness_to_json

        points = self.robustness_points()
        path = tmp_path / "robustness.json"
        assert robustness_to_json(points, path) == 2
        assert robustness_from_json(path) == points

    def test_fault_sweep_roundtrip(self, tmp_path):
        from repro.io.results import fault_sweep_from_json, fault_sweep_to_json

        points = self.fault_points()
        path = tmp_path / "faults.json"
        assert fault_sweep_to_json(points, path) == 1
        assert fault_sweep_from_json(path) == points

    def test_formats_not_interchangeable(self, tmp_path):
        from repro.io.results import fault_sweep_from_json, robustness_to_json

        path = tmp_path / "robustness.json"
        robustness_to_json(self.robustness_points(), path)
        with pytest.raises(ConfigurationError, match="not a"):
            fault_sweep_from_json(path)

    def test_invalid_json_rejected(self, tmp_path):
        from repro.io.results import robustness_from_json

        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            robustness_from_json(path)

    def test_malformed_point_rejected(self, tmp_path):
        from repro.io.results import FAULT_SWEEP_FORMAT, fault_sweep_from_json

        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({
            "format": FAULT_SWEEP_FORMAT, "version": 1,
            "points": [{"loss_probability": 0.1}],
        }))
        with pytest.raises(ConfigurationError, match="malformed"):
            fault_sweep_from_json(path)

    def test_wrong_version_rejected(self, tmp_path):
        from repro.io.results import ROBUSTNESS_FORMAT, robustness_from_json

        path = tmp_path / "v99.json"
        path.write_text(json.dumps({
            "format": ROBUSTNESS_FORMAT, "version": 99, "points": [],
        }))
        with pytest.raises(ConfigurationError, match="version"):
            robustness_from_json(path)


class TestMarkdown:
    def test_markdown_output(self, tmp_path):
        from repro.io.results import tables_to_markdown

        path = tmp_path / "out.md"
        count = tables_to_markdown([sample_table()], path)
        assert count == 1
        text = path.read_text()
        assert text.startswith("### T")
        assert "| n | alg |" in text
        assert "| 20 | 5.00 |" in text
        assert "| 40 | 9.00 |" in text


class TestAtomicWrites:
    """Result files are replaced atomically — never observable half-written."""

    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        from repro.io.results import _atomic_write_text

        target = tmp_path / "doc.json"
        target.write_text("old contents")
        _atomic_write_text(target, "new contents")
        assert target.read_text() == "new contents"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_failed_write_preserves_the_old_file(self, tmp_path):
        from repro.io.results import _atomic_write_text

        target = tmp_path / "doc.json"
        target.write_text("precious")
        # A non-text payload fails inside the temp-file write: the
        # replace never happens, so the target must be untouched.
        with pytest.raises(TypeError):
            _atomic_write_text(target, object())
        assert target.read_text() == "precious"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_append_perf_point_is_atomic_and_appends(self, tmp_path):
        from repro.io.results import append_perf_point, load_perf_trajectory

        path = tmp_path / "BENCH.json"
        assert append_perf_point(path, {"label": "a", "v": 1}) == 1
        assert append_perf_point(path, {"label": "a", "v": 2}) == 2
        assert [p["v"] for p in load_perf_trajectory(path)] == [1, 2]
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH.json"]
