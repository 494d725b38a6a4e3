"""Serve CLI: flag parsing and error paths (no daemon booted here)."""

import pytest

from repro.serve.cli import _CliError, _loadgen_args, _serve_args, main


class TestServeArgs:
    def test_defaults(self):
        opts = _serve_args([])
        assert opts["host"] == "127.0.0.1"
        assert opts["port"] is None  # falls back to REPRO_SERVE_PORT
        assert opts["shards"] is None  # falls back to REPRO_SERVE_SHARDS

    def test_both_flag_forms(self):
        opts = _serve_args(["--port", "8000", "--shards=4", "--wait-ms=0.5"])
        assert opts["port"] == 8000
        assert opts["shards"] == 4
        assert opts["wait_ms"] == 0.5

    def test_ready_and_metrics_files(self):
        opts = _serve_args(["--ready-file=/tmp/r.json", "--metrics-out", "/tmp/m.json"])
        assert opts["ready_file"] == "/tmp/r.json"
        assert opts["metrics_out"] == "/tmp/m.json"

    def test_unknown_flag_raises(self):
        with pytest.raises(_CliError):
            _serve_args(["--turbo"])

    def test_missing_value_raises(self):
        with pytest.raises(_CliError):
            _serve_args(["--port"])

    def test_workers_is_an_unknown_option(self):
        with pytest.raises(_CliError):
            _serve_args(["--workers=2"])


class TestLoadgenArgs:
    def test_defaults(self):
        opts = _loadgen_args([])
        assert opts["queries"] == 500
        assert opts["seed"] == 0
        assert opts["batch"] == 1

    def test_batch_and_count(self):
        opts = _loadgen_args(["-n", "100", "--batch=64", "--concurrency", "2"])
        assert opts["queries"] == 100
        assert opts["batch"] == 64
        assert opts["concurrency"] == 2

    def test_shutdown_flag(self):
        assert _loadgen_args(["--shutdown"])["shutdown"] is True


class TestMainDispatch:
    def test_bad_option_exits_2(self, capsys):
        assert main(["--turbo"]) == 2
        assert "turbo" in capsys.readouterr().err

    def test_workers_exits_2(self, capsys):
        assert main(["--workers=2"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "loadgen" in capsys.readouterr().out

    def test_loadgen_help_exits_0(self, capsys):
        assert main(["loadgen", "--help"]) == 0
        capsys.readouterr()

    def test_loadgen_bad_count_exits_2(self, capsys):
        assert main(["loadgen", "-n", "ten"]) == 2
        capsys.readouterr()
