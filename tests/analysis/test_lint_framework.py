"""Framework tests: suppressions, runner, reporters, CLI."""

from __future__ import annotations

import argparse
import json
import pathlib

import pytest

from repro.analysis import get_rule, lint_paths
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
    assert payload["findings"][0]["line"] == 2


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


def test_cli_has_no_baseline_flags(tmp_path, capsys):
    """Nothing can be grandfathered: every finding fails the run."""
    mod = tmp_path / "mod.py"
    mod.write_text(WALLCLOCK)
    for flag in ("--baseline", "--update-baseline"):
        with pytest.raises(SystemExit):
            _cli(str(mod), flag)
    capsys.readouterr()
    assert _cli(str(mod)) == 1
    assert "1 finding across 1 files (0 suppressed)" in \
        capsys.readouterr().out
