"""The ``repro campaign`` subcommand end to end."""

from __future__ import annotations

import json

import pytest

from repro.campaign import play
from repro.cli import _fleet_spec, _sessions_spec, build_parser, main
from repro.experiments.common import canonical_json_text


def test_campaign_list_prints_cells(capsys):
    assert main(["campaign", "--list"]) == 0
    out = capsys.readouterr().out
    assert "24 cells" in out
    # every listed cell line carries a 12-hex spec hash
    listed = [line for line in out.splitlines()
              if line.startswith("  ") and "=" in line]
    assert len(listed) == 24


def test_campaign_smoke_writes_canonical_scorecard(tmp_path, capsys):
    out_path = tmp_path / "campaign_scorecard.json"
    assert main(["campaign", "--smoke", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    scorecard = json.loads(text)
    assert scorecard["schema"] == "campaign_scorecard/v1"
    assert scorecard["summary"]["cells"] == 4
    assert scorecard["summary"]["failed"] == 0
    # canonical form: sorted keys, trailing newline
    assert text == json.dumps(scorecard, indent=2, sort_keys=True,
                              allow_nan=False) + "\n"
    assert "recovered" in capsys.readouterr().out


def test_campaign_axis_override(tmp_path, capsys):
    out_path = tmp_path / "sc.json"
    assert main(["campaign", "--smoke", "--axis", "seed=5",
                 "--axis", "chaos=none", "--out", str(out_path)]) == 0
    scorecard = json.loads(out_path.read_text())
    assert scorecard["summary"]["cells"] == 2      # 2 platforms x 1 x 1
    assert all(row["seed"] == 5 for row in scorecard["cells"])
    assert all(row["chaos"] == [] for row in scorecard["cells"])


def test_campaign_spec_file(tmp_path):
    spec_file = tmp_path / "campaign.json"
    spec_file.write_text(json.dumps({
        "name": "from-file",
        "base": {"name": "ff", "horizon": 600.0,
                 "site": {"hops_nodes": 4, "eldorado_nodes": 2,
                          "goodall_nodes": 2, "cee_nodes": 1},
                 "schedule": {"kind": "poisson", "rate_rps": 0.05}},
        "axes": {"seed": [1, 2]},
    }))
    out_path = tmp_path / "sc.json"
    assert main(["campaign", "--spec", str(spec_file),
                 "--out", str(out_path)]) == 0
    scorecard = json.loads(out_path.read_text())
    assert scorecard["campaign"] == "from-file"
    assert scorecard["summary"]["cells"] == 2


def test_campaign_bad_axis_exits():
    with pytest.raises(SystemExit):
        main(["campaign", "--axis", "notanaxis"])


@pytest.mark.parametrize("argv, to_spec", [
    (["fleet", "--hours", "0.25", "--flash-hour", "0.1",
      "--flash-minutes", "5"], _fleet_spec),
    (["sessions", "--hours", "0.25", "--base-rate", "0.03",
      "--peak-rate", "0.06"], _sessions_spec),
], ids=["fleet", "sessions"])
def test_cli_scorecard_is_the_played_spec(tmp_path, capsys, argv, to_spec):
    """``repro fleet`` / ``repro sessions`` write exactly what
    :func:`play` reports for the spec their flags describe."""
    out_path = tmp_path / "scorecard.json"
    assert main([*argv, "--out", str(out_path)]) == 0
    assert "wrote scorecard to" in capsys.readouterr().out
    report, _fleet, _digest = play(to_spec(build_parser().parse_args(argv)))
    assert out_path.read_text() == canonical_json_text(report.to_json())
