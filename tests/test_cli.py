"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestGenerate:
    def test_writes_graph_json(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main(["generate", "--nodes", "40", "--edges", "150", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["nodes"]) == 40
        assert len(payload["edges"]) == 150
        assert "wrote 40 nodes" in capsys.readouterr().out

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--nodes", "30", "--edges", "100", "--seed", "5", "--out", str(a)])
        main(["generate", "--nodes", "30", "--edges", "100", "--seed", "5", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestTable1:
    def test_custom_sizes(self, capsys):
        code = main(["table1", "--sizes", "60", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Network1" in out
        assert "Network2" in out
        assert "reduction" in out


class TestPlanAndSimulate:
    @pytest.fixture
    def graph_file(self, tmp_path):
        out = tmp_path / "g.json"
        main(["generate", "--nodes", "60", "--edges", "250", "--out", str(out)])
        return out

    def test_plan_each_strategy(self, graph_file, capsys):
        for strategy in ("spectral", "maxflow", "kl"):
            code = main(["plan", "--graph", str(graph_file), "--strategy", strategy])
            assert code == 0
            out = capsys.readouterr().out
            assert f"[{strategy}]" in out
            assert "compression:" in out

    def test_simulate_healthy(self, graph_file, capsys):
        code = main(["simulate", "--graph", str(graph_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "events processed" in out

    def test_simulate_with_fault(self, graph_file, capsys):
        code = main(
            ["simulate", "--graph", str(graph_file), "--server-fault", "1.0:0.5"]
        )
        assert code == 0
        assert "makespan" in capsys.readouterr().out

    def test_simulate_bad_fault_spec(self, graph_file, capsys):
        code = main(["simulate", "--graph", str(graph_file), "--server-fault", "oops"])
        assert code == 2
        assert "bad --server-fault" in capsys.readouterr().err


class TestFigures:
    def test_timing_family_quick(self, capsys, monkeypatch):
        # Shrink the profile so the CLI smoke test stays fast.
        import repro.cli as cli
        from repro.workloads.profiles import ExperimentProfile

        tiny = ExperimentProfile(
            name="tiny", graph_sizes=(60,), user_counts=(2,), multiuser_graph_size=60
        )
        monkeypatch.setattr(cli, "_profile", lambda name: tiny)
        code = main(["figures", "timing", "--repetitions", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spectral-power" in out
        assert "spectral-spark" in out

    def test_single_user_family(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.workloads.profiles import ExperimentProfile

        tiny = ExperimentProfile(
            name="tiny", graph_sizes=(60,), user_counts=(2,), multiuser_graph_size=60
        )
        monkeypatch.setattr(cli, "_profile", lambda name: tiny)
        code = main(["figures", "single-user", "--repetitions", "1"])
        assert code == 0
        out = capsys.readouterr().out
        for algorithm in ("spectral", "maxflow", "kl"):
            assert algorithm in out

    def test_multi_user_family(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.workloads.profiles import ExperimentProfile

        tiny = ExperimentProfile(
            name="tiny", graph_sizes=(60,), user_counts=(2,), multiuser_graph_size=60
        )
        monkeypatch.setattr(cli, "_profile", lambda name: tiny)
        code = main(["figures", "multi-user", "--repetitions", "1"])
        assert code == 0
        assert "users" in capsys.readouterr().out


class TestReportCommand:
    @pytest.fixture(autouse=True)
    def tiny_profile(self, monkeypatch):
        import repro.cli as cli
        from repro.workloads.profiles import ExperimentProfile

        tiny = ExperimentProfile(
            name="tiny", graph_sizes=(60,), user_counts=(2,), multiuser_graph_size=60
        )
        monkeypatch.setattr(cli, "_profile", lambda name: tiny)

    def test_report_to_stdout(self, capsys):
        code = main(["report", "--no-timing"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# COPMECS reproduction report" in out
        assert "## Table I" in out

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(["report", "--no-timing", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "## Figures 6-8" in out.read_text()
        assert "wrote report" in capsys.readouterr().out


class TestSensitivityCommand:
    def test_sweep_table_printed(self, capsys):
        code = main(["sensitivity", "power_transmit", "--graph-size", "100"])
        assert code == 0
        out = capsys.readouterr().out
        assert "offloaded %" in out
        assert "power_transmit" in out

    def test_unknown_parameter_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["sensitivity", "warp_power"])


class TestSimulateJson:
    def test_json_output(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        main(["generate", "--nodes", "60", "--edges", "250", "--out", str(graph)])
        capsys.readouterr()
        code = main(["simulate", "--graph", str(graph), "--json"])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert "per_user" in payload
        assert "makespan" in payload


class TestCompressCommand:
    def test_metrics_and_dot(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        main(["generate", "--nodes", "120", "--edges", "500", "--out", str(graph)])
        capsys.readouterr()
        dot = tmp_path / "g.dot"
        code = main(["compress", "--graph", str(graph), "--dot", str(dot)])
        assert code == 0
        out = capsys.readouterr().out
        assert "node reduction" in out
        assert "internalized traffic" in out
        assert dot.read_text().startswith("graph")

    def test_without_dot(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        main(["generate", "--nodes", "60", "--edges", "250", "--out", str(graph)])
        capsys.readouterr()
        assert main(["compress", "--graph", str(graph)]) == 0
        assert "modularity" in capsys.readouterr().out


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["teleport"])


class TestServeHttp:
    def test_interrupt_during_banner_shuts_down_cleanly(self, monkeypatch, capsys):
        import builtins

        import repro.cli
        import repro.service

        closed = []

        class RecordingFrontend(repro.service.HttpFrontendThread):
            def close(self, timeout: float = 10.0) -> None:
                closed.append(True)
                super().close(timeout)

        def interrupting_print(*args, **kwargs):
            if args and str(args[0]).startswith("plan service listening"):
                raise KeyboardInterrupt
            builtins.print(*args, **kwargs)

        monkeypatch.setattr(repro.service, "HttpFrontendThread", RecordingFrontend)
        monkeypatch.setattr(repro.cli, "print", interrupting_print, raising=False)
        code = main(["serve-http", "--port", "0", "--workers", "1"])
        assert code == 0
        assert "shutting down" in capsys.readouterr().out
        assert closed == [True]
