"""The ``repro campaign`` and ``repro run`` subcommands end to end."""

from __future__ import annotations

import json

import pytest

from repro.campaign import catalogue, play, set_path
from repro.cli import main
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
    assert main(["campaign", "smoke-4", "--out", str(out_path)]) == 0
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
    assert main(["campaign", "smoke-4", "--axis", "seed=5",
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
    assert main(["campaign", str(spec_file),
                 "--out", str(out_path)]) == 0
    scorecard = json.loads(out_path.read_text())
    assert scorecard["campaign"] == "from-file"
    assert scorecard["summary"]["cells"] == 2


def test_campaign_bad_axis_exits(capsys):
    assert main(["campaign", "--axis", "notanaxis"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: --axis must look like")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name, sets", [
    ("cli-fleet", {"horizon": "900", "schedule.flash_start": "360",
                   "schedule.flash_duration": "300"}),
    ("cli-sessions", {"horizon": "900", "schedule.base_rps": "0.03",
                      "schedule.peak_rps": "0.06"}),
], ids=["fleet", "sessions"])
def test_cli_scorecard_is_the_played_spec(tmp_path, capsys, name, sets):
    """``repro run NAME --set ...`` writes exactly what :func:`play`
    reports for the catalogue spec with those fields set."""
    out_path = tmp_path / "scorecard.json"
    argv = ["run", name]
    for path, value in sets.items():
        argv += ["--set", f"{path}={value}"]
    assert main([*argv, "--out", str(out_path)]) == 0
    assert "wrote scorecard to" in capsys.readouterr().out
    spec = catalogue.scenario(name)
    for path, value in sets.items():
        spec = set_path(spec, path, value)
    report, _fleet, _digest = play(spec)
    assert out_path.read_text() == canonical_json_text(report.to_json())
