"""Tests for the per-stage performance counters."""

import time
import tracemalloc

import pytest

from repro import perf


@pytest.fixture(autouse=True)
def _clean_counters():
    was = perf.enabled()
    was_mem = perf.memory_enabled()
    was_tracing = tracemalloc.is_tracing()
    perf.reset()
    yield
    perf.enable(was)
    perf.enable_memory(was_mem)
    perf.reset()
    # Memory sampling starts tracemalloc; left running, it would slow
    # every allocation in the tests that follow.
    if not was_tracing:
        tracemalloc.stop()


class TestDisabled:
    def test_stage_records_nothing(self):
        perf.enable(False)
        with perf.stage("clustering"):
            pass
        assert perf.snapshot() == {}

    def test_timed_passes_through(self):
        perf.enable(False)

        @perf.timed("coverage")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert perf.snapshot() == {}


class TestEnabled:
    def test_calls_and_seconds_accumulate(self):
        perf.enable()
        for _ in range(3):
            with perf.stage("selection"):
                time.sleep(0.001)
        snap = perf.snapshot()
        assert snap["selection"]["calls"] == 3
        assert snap["selection"]["seconds"] > 0.0

    def test_nested_stages_attribute_exclusively(self):
        perf.enable()
        with perf.stage("outer"):
            time.sleep(0.02)
            with perf.stage("inner"):
                time.sleep(0.02)
        snap = perf.snapshot()
        # The outer stage's clock pauses while the inner one runs: the
        # inner 20ms must not be double-counted into the outer stage.
        assert snap["inner"]["seconds"] >= 0.015
        assert 0.015 <= snap["outer"]["seconds"] < 0.035

    def test_timed_decorator_counts(self):
        perf.enable()

        @perf.timed("broadcast")
        def f():
            return 7

        assert f() == 7 and f() == 7
        assert perf.snapshot()["broadcast"]["calls"] == 2

    def test_reset_drops_everything(self):
        perf.enable()
        with perf.stage("placement"):
            pass
        perf.reset()
        assert perf.snapshot() == {}


class TestMemorySampling:
    def test_off_by_default_records_no_bytes(self):
        perf.enable()
        perf.enable_memory(False)
        with perf.stage("coverage"):
            _ = bytearray(1 << 20)
        snap = perf.snapshot()
        assert "alloc_bytes" not in snap["coverage"]
        assert "peak_bytes" not in snap["coverage"]

    def test_stage_captures_alloc_and_peak(self):
        perf.enable()
        perf.enable_memory()
        with perf.stage("coverage"):
            buf = bytearray(4 << 20)
            del buf
        snap = perf.snapshot()
        # The 4 MiB buffer was freed before exit, so the *peak* sees it
        # while the net allocation stays small.
        assert snap["coverage"]["peak_bytes"] >= 4 << 20
        assert snap["coverage"]["alloc_bytes"] < 4 << 20

    def test_nested_stage_allocation_is_exclusive(self):
        perf.enable()
        perf.enable_memory()
        with perf.stage("outer"):
            with perf.stage("inner"):
                self.held = bytearray(4 << 20)
        snap = perf.snapshot()
        del self.held
        # The inner stage's 4 MiB must not leak into the outer stage's
        # net-allocation number.
        assert snap["inner"]["alloc_bytes"] >= 4 << 20
        assert snap["outer"]["alloc_bytes"] < 1 << 20

    def test_peak_rss_is_positive_on_posix(self):
        assert perf.peak_rss_bytes() > 0


class TestReport:
    def test_render_orders_canonical_stages_first(self):
        counters = {
            "zeta": {"seconds": 0.1, "calls": 1},
            "placement": {"seconds": 0.2, "calls": 2},
            "broadcast": {"seconds": 0.3, "calls": 3},
        }
        report = perf.render_report(counters)
        lines = report.splitlines()
        assert lines[1].startswith("placement")
        assert lines[2].startswith("broadcast")
        assert lines[3].startswith("zeta")
        assert lines[-1].startswith("total")

    def test_render_adds_memory_columns_when_sampled(self):
        counters = {
            "coverage": {"seconds": 0.1, "calls": 1,
                         "alloc_bytes": 2048, "peak_bytes": 5 << 20},
        }
        report = perf.render_report(counters)
        assert "alloc" in report.splitlines()[0]
        assert "2.0KiB" in report
        assert "5.0MiB" in report
        assert "peak RSS" in report

    def test_render_omits_memory_columns_without_samples(self):
        counters = {"coverage": {"seconds": 0.1, "calls": 1}}
        report = perf.render_report(counters)
        assert "alloc" not in report
        assert "peak RSS" not in report

    def test_pipeline_functions_report_under_their_stage(self):
        from repro.graph.generators import random_geometric_network

        perf.enable()
        net = random_geometric_network(25, 8.0, rng=1)
        snap = perf.snapshot()
        assert snap["placement"]["calls"] >= 1
        assert snap["construction"]["calls"] >= 1
        assert net.num_nodes == 25
