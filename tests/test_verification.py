"""Verification harness plumbing and environment knobs."""

import pytest

from liens.cli import main
from liens.grid_spectral import fft_worker_count
from liens.verification import CheckResult, format_table, run_acceptance


class TestCheckResult:
    def test_pass_fail(self):
        assert CheckResult("1", "x", 0.5, 1.0).passed
        assert not CheckResult("1", "x", 2.0, 1.0).passed

    def test_table_contains_rows(self):
        rows = [
            CheckResult("1", "first", 0.5, 1.0),
            CheckResult("2", "second", 2.0, 1.0),
        ]
        table = format_table(rows)
        assert "PASS" in table and "FAIL" in table
        assert "1 failed" in table

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            run_acceptance("exhaustive")


class TestWorkerCap:
    def test_env_cap(self, monkeypatch):
        """The FFTs run on one thread, whatever LIENS_THREADS says."""
        for value in ("1", "8", "junk"):
            monkeypatch.setenv("LIENS_THREADS", value)
            assert fft_worker_count() == 1
        monkeypatch.delenv("LIENS_THREADS")
        assert fft_worker_count() == 1


def test_verify_command_quick_exit_zero(capsys):
    assert main(["verify", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out.replace("FAILED", "")
