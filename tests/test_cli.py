"""Tests for the ``python -m repro`` experiment CLI."""

import pytest

from repro.__main__ import EXPERIMENTS, _parse_args, main


@pytest.fixture
def restore_engine():
    """Put the process-wide engine back after a CLI run reconfigures it.

    ``main()`` calls ``configure()``, and trace settings would otherwise
    leak into every later test of the session (different cache keys,
    stray trace files).
    """
    from repro.experiments import engine as engine_module

    saved = engine_module._engine
    yield
    engine_module._engine = saved


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "headline" in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0
        assert "experiments:" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_runs_fast_experiment(self, capsys):
        assert main(["fig13"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 13" in out

    def test_every_registered_name_is_callable(self):
        for fn in EXPERIMENTS.values():
            assert callable(fn)


class TestObservabilityFlags:
    def test_trace_dir_implies_trace(self):
        opts, names = _parse_args(["--trace-dir", "out"])
        assert opts["trace"] and opts["trace_dir"] == "out"
        assert names == []

    def test_bare_trace_gets_default_dir(self):
        opts, _ = _parse_args(["--trace"])
        assert opts["trace_dir"] == "repro-traces"

    def test_trace_cycles_must_be_positive_int(self, capsys):
        assert main(["--trace-cycles", "0"]) == 2
        assert main(["--trace-cycles", "many"]) == 2

    def test_profile_report_runs_one_point(
        self, tmp_path, capsys, restore_engine
    ):
        assert (
            main(
                [
                    "--profile-report",
                    "rod-nw:baseline",
                    "--workers",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "profile: rod-nw" in out
        assert "issue stalls" in out

    def test_profile_report_unknown_app(self, capsys, restore_engine):
        assert main(["--profile-report", "no-such-app", "--workers", "1"]) == 2
        assert "unknown app" in capsys.readouterr().err

    def test_trace_writes_files_and_stall_chart(
        self, tmp_path, capsys, restore_engine
    ):
        trace_dir = tmp_path / "traces"
        assert (
            main(
                [
                    "--trace",
                    "--trace-dir",
                    str(trace_dir),
                    "--trace-cycles",
                    "300",
                    "--profile-report",
                    "rod-nw:baseline",
                    "--workers",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "issue-slot attribution" in out
        assert "manifest.jsonl: 1 records" in out
        assert (trace_dir / "rod-nw--baseline--sms1.trace.json").is_file()
        assert (trace_dir / "rod-nw--baseline--sms1.events.jsonl").is_file()
        assert (trace_dir / "manifest.jsonl").is_file()
