"""The ``repro obs`` subcommand: breakdowns, profile, trace export."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_obs_command_full_surface(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    out_path = tmp_path / "scorecard.json"
    assert main(["obs", "--minutes", "6", "--rate", "0.3", "--top", "3",
                 "--profile", "--alerts", "--incidents",
                 "--trace-out", str(trace_path),
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "per-phase latency breakdown" in out
    assert "decode" in out and "prefill" in out
    assert "slowest requests" in out
    assert "critical-path attribution by e2e cohort" in out
    assert "digests:" in out
    assert "scrape:" in out
    assert "alert timeline:" in out
    assert "rules=" in out and "fired=" in out
    assert "incident timeline" in out
    assert "wall-clock self-profile" in out
    report = out.split("wall-clock self-profile:")[1]
    report = report.split("flamegraph (collapsed")[0]
    rows = [line.split()[0] for line in report.splitlines() if line.strip()]
    assert rows[0] == "path"
    assert {"simkernel", "engine"} <= set(rows[1:])
    assert "flamegraph" in out

    doc = json.loads(trace_path.read_text())
    events = doc["traceEvents"]
    assert any(e["ph"] == "X" and e["pid"] == 1 for e in events)  # spans
    assert any(e["pid"] == 2 for e in events)                     # profile
    assert doc["displayTimeUnit"] == "ms"

    scorecard = json.loads(out_path.read_text())
    assert scorecard["obs"]["finished_spans"] > 0
    assert len(scorecard["obs"]["digests"]["spans"]) == 64
    # The analysis plane rides along in the same scorecard.
    assert len(scorecard["obs"]["alerts"]["digest"]) == 64
    assert scorecard["obs"]["alerts"]["rules"]
    assert scorecard["obs"]["attribution"]["requests"] > 0
    assert len(scorecard["obs"]["attribution"]["digest"]) == 64


def test_obs_command_minimal_run_is_quiet_about_profile(capsys):
    assert main(["obs", "--minutes", "4", "--rate", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "per-phase latency breakdown" in out
    assert "critical-path attribution" in out
    assert "wall-clock self-profile" not in out
    assert "alert timeline:" not in out
    assert "incident timeline" not in out


def test_obs_phase_shares_partition_the_time(capsys):
    """``route`` spans cover the engine phases; the table counts only the
    time those phases leave of it, so the shares sum to the whole."""
    assert main(["obs", "--minutes", "6", "--rate", "0.3"]) == 0
    out = capsys.readouterr().out
    table = out.split("per-phase latency breakdown:\n")[1].split("\n\n")[0]
    shares = {line.split()[0]: float(line.split()[-1].rstrip("%"))
              for line in table.splitlines()[1:]}
    assert set(shares) == {"route", "queue", "prefill", "decode"}
    assert shares["route"] < 5.0
    assert sum(shares.values()) == pytest.approx(100.0, abs=0.3)
