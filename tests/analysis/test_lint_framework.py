"""Framework tests: suppressions, baseline round-trip, runner, CLI."""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.analysis import Baseline, get_rule, lint_paths
from repro.analysis.report import render_human, render_json
from repro.analysis.runner import add_lint_arguments, lint_file, main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

WALLCLOCK = "import time\nt = time.time()\n"


def _lint(path, *codes):
    return lint_file(path, [get_rule(c) for c in codes])


# -- suppressions ------------------------------------------------------------


def test_suppression_with_reason_silences(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import time\n"
                   "t = time.time()  # repro: allow[DET001] -- fixture\n")
    found, suppressed = _lint(mod, "DET001")
    assert found == []
    assert suppressed == 1


def test_standalone_suppression_covers_next_line(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import time\n"
                   "# repro: allow[DET001] -- fixture\n"
                   "t = time.time()\n")
    found, suppressed = _lint(mod, "DET001")
    assert found == []
    assert suppressed == 1


def test_reasonless_suppression_is_lnt001(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import time\n"
                   "t = time.time()  # repro: allow[DET001]\n")
    found, suppressed = _lint(mod, "DET001")
    assert suppressed == 1              # the hazard itself stays silenced
    assert [f.code for f in found] == ["LNT001"]


def test_unused_suppression_is_lnt002(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1  # repro: allow[DET001] -- nothing here\n")
    found, _ = _lint(mod, "DET001")
    assert [f.code for f in found] == ["LNT002"]


def test_multi_code_suppression(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import time\n"
        "time.sleep(time.time())  # repro: allow[DET001,SIM001] -- both\n")
    found, suppressed = _lint(mod, "DET001", "SIM001")
    assert found == []
    assert suppressed == 2


def test_docstring_examples_are_not_suppressions(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text('"""Write `# repro: allow[DET001] -- why` inline."""\n'
                   "import time\n"
                   "t = time.time()\n")
    found, suppressed = _lint(mod, "DET001")
    assert [f.code for f in found] == ["DET001"]
    assert suppressed == 0


# -- baseline ----------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(WALLCLOCK)
    target = tmp_path / "baseline.json"

    fresh = lint_paths([mod])
    assert len(fresh.findings) == 1

    baseline = Baseline.load(str(target))      # missing file: empty
    baseline.update(fresh.findings)
    baseline.save()

    again = lint_paths([mod], baseline=Baseline.load(str(target)))
    assert again.findings == []
    assert again.baselined == 1
    assert again.exit_code == 0


def test_baseline_survives_line_drift(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(WALLCLOCK)
    target = tmp_path / "baseline.json"
    baseline = Baseline.load(str(target))
    baseline.update(lint_paths([mod]).findings)
    baseline.save()

    # Same offending line, shifted down: fingerprint (no line number)
    # still matches, so the finding stays grandfathered.
    mod.write_text("import time\n\n\n" + "t = time.time()\n")
    drifted = lint_paths([mod], baseline=Baseline.load(str(target)))
    assert drifted.findings == []
    assert drifted.baselined == 1


def test_new_finding_not_masked_by_baseline(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(WALLCLOCK)
    target = tmp_path / "baseline.json"
    baseline = Baseline.load(str(target))
    baseline.update(lint_paths([mod]).findings)
    baseline.save()

    mod.write_text(WALLCLOCK + "u = time.monotonic()\n")
    result = lint_paths([mod], baseline=Baseline.load(str(target)))
    assert result.baselined == 1
    assert [f.code for f in result.findings] == ["DET001"]
    assert "monotonic" in result.findings[0].message
    assert result.exit_code == 1


# -- runner / reporters / CLI ------------------------------------------------


def test_syntax_error_yields_lnt000_and_exit_2(tmp_path):
    mod = tmp_path / "broken.py"
    mod.write_text("def oops(:\n")
    result = lint_paths([mod])
    assert result.parse_errors == 1
    assert result.exit_code == 2
    assert result.findings[0].code == "LNT000"


def test_reporters_cover_every_finding(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(WALLCLOCK)
    result = lint_paths([mod])
    human = render_human(result)
    assert "DET001" in human and "mod.py" in human
    payload = json.loads(render_json(result))
    assert payload["summary"]["findings"] == 1
    assert payload["findings"][0]["code"] == "DET001"
    assert payload["findings"][0]["fingerprint"]


def _cli(*argv):
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    return main(parser.parse_args(list(argv)))


def test_cli_clean_exit_0(capsys):
    assert _cli(str(FIXTURES / "clean_ok.py")) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_findings_exit_1_json(capsys):
    code = _cli(str(FIXTURES / "bad_sim001.py"), "--format", "json",
                "--select", "SIM001")
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["findings"] == 2


def test_cli_unknown_select_exit_2(capsys):
    assert _cli("--select", "NOP999") == 2


def test_cli_list_rules(capsys):
    assert _cli("--list-rules") == 0
    out = capsys.readouterr().out
    for code in ("DET001", "DET002", "DET003", "DET004",
                 "SIM001", "SIM002"):
        assert code in out


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    mod = tmp_path / "mod.py"
    mod.write_text(WALLCLOCK)
    target = tmp_path / "baseline.json"
    assert _cli(str(mod), "--baseline", str(target),
                "--update-baseline") == 0
    capsys.readouterr()
    assert _cli(str(mod), "--baseline", str(target)) == 0
    assert "1 baselined" in capsys.readouterr().out
