"""Tests for table rendering, timelines and the CLI."""

import errno
import os
import sys

import pytest

from repro.analysis import format_table
from repro.analysis.timeline import render_timeline, utilization
from repro.cli import build_parser, main
from repro.ndp.taskgraph import ScheduleEntry


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) or True for line in lines)

    def test_float_formatting(self):
        text = format_table(["v"], [[0.000123], [12345.6], [1.5]])
        assert "0.000123" in text
        assert "1.23e+04" in text or "12345" in text or "1.23e+4" in text

    def test_empty(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestTimeline:
    def _schedule(self):
        return [
            ScheduleEntry("f0", "compute", 0.0, 1e-6),
            ScheduleEntry("c0", "network", 1e-6, 3e-6),
            ScheduleEntry("f1", "compute", 1e-6, 2e-6),
        ]

    def test_render_has_resource_rows(self):
        text = render_timeline(self._schedule())
        assert "compute" in text
        assert "network" in text

    def test_render_empty(self):
        assert render_timeline([]) == "(empty schedule)"

    def test_utilization(self):
        util = utilization(self._schedule())
        assert util["compute"] == pytest.approx(2e-6 / 3e-6)
        assert util["network"] == pytest.approx(2e-6 / 3e-6)

    def test_utilization_empty(self):
        assert utilization([]) == {}


class _ClosedPipe:
    """A stdout whose reader has gone (``| head`` exited): every write
    raises, as a write to a closed pipe does."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestCli:
    @pytest.mark.parametrize("argv", [
        ["figure", "table1"],
        ["statcheck", "--list-rules"],
    ])
    def test_closed_stdout_exits_without_traceback(self, argv, tmp_path, monkeypatch):
        """A reader that closes stdout early ends the run in exit code 1,
        with stdout's descriptor pointed at devnull so the interpreter's
        final flush is quiet."""
        with open(tmp_path / "stdout", "w") as out:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(out.fileno()))
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 1
            assert os.path.samestat(os.fstat(out.fileno()), os.stat(os.devnull))

    def test_machine_command(self, capsys):
        main(["machine"])
        out = capsys.readouterr().out
        assert "320 GB/s" in out
        assert "64x64" in out

    def test_figure_table1(self, capsys):
        main(["figure", "table1"])
        out = capsys.readouterr().out
        assert "WRN-40-10" in out

    def test_figure_unknown_exits(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_simulate_small(self, capsys):
        main(["simulate", "WRN-40-10", "--workers", "16", "--batch", "64"])
        out = capsys.readouterr().out
        assert "w_mp++" in out

    def test_simulate_unknown_network_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "AlexNet"])

    def test_timeline_command(self, capsys):
        main(["timeline", "WRN-40-10", "--config", "w_dp", "--workers", "16"])
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "utilisation" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [
        ["simulate", "WRN-40-10", "--workers", "0"],
        ["simulate", "WRN-40-10", "--workers", "3"],
        ["timeline", "ResNet-34", "--batch", "-8"],
        ["plan", "--machine-workers", "0", "-o", "p.json"],
        ["plan", "--batch-splits", "abc", "-o", "p.json"],
        ["faults", "--grids", "16x5", "-o", "f.json"],
        ["faults", "--message-bytes", "-1", "-o", "f.json"],
    ])
    def test_invalid_input_exits_with_one_line(self, argv, tmp_path, monkeypatch):
        """``main`` is the one error boundary: invalid input ends in a
        non-zero exit with a one-line message, never a traceback, and
        leaves no output file behind."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(argv)
        message = info.value.code
        assert isinstance(message, str) and message and "\n" not in message
        assert list(tmp_path.iterdir()) == []
