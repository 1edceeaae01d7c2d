"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("generate", "cluster", "backbone", "broadcast",
                    "experiment", "trace", "ratio", "faults", "channel"):
            assert cmd in text


class TestCommands:
    def test_generate_and_reload(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        assert main(["generate", "-n", "15", "-d", "6", "--seed", "3",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert main(["cluster", "--load", str(out)]) == 0
        captured = capsys.readouterr()
        assert "clusters" in captured.out

    def test_backbone_verifies(self, capsys):
        assert main(["backbone", "-n", "20", "-d", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "verified CDS" in out

    def test_backbone_mo_cds(self, capsys):
        assert main(["backbone", "-n", "20", "-d", "8", "--algorithm",
                     "mo-cds"]) == 0
        assert "mo-cds" in capsys.readouterr().out

    @pytest.mark.parametrize("protocol", ["flooding", "static", "dynamic",
                                          "mo-cds"])
    def test_broadcast_protocols(self, protocol, capsys):
        assert main(["broadcast", "-n", "20", "-d", "8",
                     "--protocol", protocol]) == 0
        assert "full delivery" in capsys.readouterr().out

    def test_broadcast_pruning_option(self, capsys):
        assert main(["broadcast", "-n", "15", "-d", "6",
                     "--pruning", "none"]) == 0

    def test_trace_figure3(self, capsys):
        assert main(["trace", "--figure3", "--source", "1"]) == 0
        out = capsys.readouterr().out
        assert "forward nodes [1, 2, 3, 4, 6, 7, 9]" in out
        assert "phase hello" in out

    def test_ratio(self, capsys):
        assert main(["ratio", "--samples", "3", "-n", "10", "-d", "4"]) == 0
        assert "static/MCDS" in capsys.readouterr().out

    def test_experiment_quick_with_exports(self, tmp_path, capsys):
        csv = tmp_path / "fig6.csv"
        js = tmp_path / "fig6.json"
        assert main(["experiment", "fig6", "--quick", "--seed", "7",
                     "--csv", str(csv), "--json", str(js)]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert csv.exists()
        assert json.loads(js.read_text())

    def test_error_path_returns_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["cluster", "--load", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err


class TestExtensionCommands:
    def test_svg_export(self, tmp_path, capsys):
        out = tmp_path / "net.svg"
        assert main(["svg", "-n", "15", "-d", "8", "--backbone",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<?xml") and "</svg>" in text

    def test_svg_plain_no_labels(self, tmp_path):
        out = tmp_path / "plain.svg"
        assert main(["svg", "-n", "10", "-d", "6", "--no-labels",
                     "--out", str(out)]) == 0
        assert "<text" not in out.read_text()

    def test_robustness(self, capsys):
        assert main(["robustness", "-n", "20", "--trials", "2",
                     "--losses", "0", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "flooding" in out and "dynamic" in out

    def test_mobility(self, capsys):
        assert main(["mobility", "-n", "20", "-d", "10", "--ticks", "2",
                     "--speed", "2"]) == 0
        out = capsys.readouterr().out
        assert "gw turnover" in out

    def test_mobility_waypoint_model(self, capsys):
        assert main(["mobility", "-n", "15", "-d", "10", "--ticks", "1",
                     "--model", "waypoint"]) == 0

    def test_faults_sweep_table(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(["faults", "-n", "20", "-d", "8", "--seed", "4",
                     "--trials", "2", "--losses", "0", "0.2",
                     "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "loss" in text and "reliable-si" in text
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-fault-sweep"
        assert len(doc["points"]) == 2

    def test_faults_schedule_file(self, tmp_path, capsys):
        from repro.faults.schedule import FaultSchedule, NodeDown

        spec = tmp_path / "schedule.json"
        spec.write_text(json.dumps(
            FaultSchedule([NodeDown(time=1.0, node=5)]).to_spec()))
        assert main(["faults", "-n", "20", "-d", "8", "--seed", "4",
                     "--schedule", str(spec), "--source", "0",
                     "--loss", "0.1"]) == 0
        text = capsys.readouterr().out
        assert "1 events" in text
        for axis in ("delivery", "overhead", "latency"):
            assert axis in text

    def test_faults_bad_schedule_is_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text("{nope")
        assert main(["faults", "-n", "10", "--schedule", str(spec)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_channel_sweep_table(self, tmp_path, capsys):
        out = tmp_path / "contention.json"
        assert main(["channel", "-n", "20", "-d", "8", "--seed", "4",
                     "--trials", "2", "--losses", "0", "0.2",
                     "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "delivery by loss" in text and "collisions by loss" in text
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-fault-sweep"
        assert len(doc["points"]) == 2

    @pytest.mark.parametrize("command", ["faults", "channel"])
    def test_zero_trials_is_a_named_error(self, command, capsys):
        assert main([command, "-n", "15", "-d", "6", "--trials", "0"]) == 1
        captured = capsys.readouterr()
        assert "min_samples must be >= 2" in captured.err
        assert captured.out == ""

    def test_perf_json(self, capsys):
        assert main(["perf", "--figure", "fig6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure"] == "fig6"
        assert payload["trials"] > 0
        assert {"clustering", "coverage", "selection"} <= set(
            payload["stages"])
        assert "backend" not in payload and "parallel" not in payload

    def test_backend_choices_come_from_the_registry(self):
        from repro.exec.backends import BACKENDS

        parser = build_parser()
        for argv in (["experiment", "fig6"], ["faults"], ["channel"],
                     ["serve", "--socket", "s", "--root", "r"]):
            for name in BACKENDS:
                assert parser.parse_args(argv + ["--backend", name]).backend \
                    == name
            with pytest.raises(SystemExit):
                parser.parse_args(argv + ["--backend", "thread"])
        with pytest.raises(SystemExit):
            parser.parse_args(["perf", "--backend", "serial"])

    def test_channel_tdma_mac(self, capsys):
        assert main(["channel", "-n", "15", "-d", "6", "--trials", "2",
                     "--mac", "tdma", "--frame", "4"]) == 0
        assert "mac=tdma" in capsys.readouterr().out

    def test_trace_with_channel(self, capsys):
        assert main(["trace", "-n", "20", "-d", "8", "--seed", "2",
                     "--channel", "sinr", "--mac", "csma"]) == 0
        out = capsys.readouterr().out
        assert "channel [sinr/csma]:" in out and "collisions" in out

    def test_trace_sinr_needs_positions(self, capsys):
        assert main(["trace", "--figure3", "--channel", "sinr"]) == 1
        assert "positions" in capsys.readouterr().err

    def test_route(self, capsys):
        assert main(["route", "-n", "25", "-d", "8", "--source", "0"]) == 0
        out = capsys.readouterr().out
        assert "route 0 ->" in out and "stretch" in out
