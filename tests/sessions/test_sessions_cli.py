"""``repro run cli-sessions`` and ``repro campaign sessions-9``."""

from __future__ import annotations

import json

from repro.cli import main


def test_sessions_command_runs_a_short_day(tmp_path, capsys):
    out_path = tmp_path / "sessions_scorecard.json"
    assert main(["run", "cli-sessions", "--set", "horizon=1800",
                 "--set", "schedule.base_rps=0.03",
                 "--set", "schedule.peak_rps=0.06",
                 "--set", "sessions.mean_turns=4",
                 "--set", "sessions.think_mean_s=15",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "prefix cache: hit rate" in out
    assert "ttft by turn" in out
    assert "sessions:" in out
    scorecard = json.loads(out_path.read_text())
    assert scorecard["sessions"]["started"] > 0
    assert scorecard["slo"]["cache"]["hit_rate"] > 0.0
    assert scorecard["slo"]["turns"]["later"]["n"] > 0


def test_sessions_command_no_prefix_cache(capsys):
    assert main(["run", "cli-sessions", "--set", "horizon=1440",
                 "--set", "schedule.base_rps=0.03",
                 "--set", "schedule.peak_rps=0.05",
                 "--set", "sessions.mean_turns=3",
                 "--set", "sessions.think_mean_s=10",
                 "--set", "sessions.prefix_caching=false",
                 "--set", "policy=least-outstanding"]) == 0
    out = capsys.readouterr().out
    assert "hit rate 0.00%" in out


def test_campaign_sessions_grid_lists_nine_cells(capsys):
    assert main(["campaign", "sessions-9", "--list"]) == 0
    out = capsys.readouterr().out
    assert "9 cells" in out
    assert "sessions/small-kv" in out
