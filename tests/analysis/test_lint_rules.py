"""Golden-fixture tests: every rule fires on its known-bad file.

The fixtures live in ``fixtures/`` with ``bad_`` / ``clean_`` prefixes
so pytest never collects them as test modules; each ``bad_<code>.py``
carries the minimal idiomatic form of the hazard its rule exists for.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import all_rules, get_rule, lint_paths
from repro.analysis.runner import lint_file

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def findings_for(code: str, fixture: str):
    found, _suppressed = lint_file(FIXTURES / fixture, [get_rule(code)])
    return found


@pytest.mark.parametrize("code,fixture,count", [
    ("DET001", "bad_det001.py", 4),
    ("DET002", "bad_det002.py", 4),
    ("DET003", "bad_det003.py", 4),
    ("DET004", "bad_det004.py", 3),
    ("SIM001", "bad_sim001.py", 2),
    ("SIM002", "bad_sim002.py", 3),
    ("SIM002", "bad_sim002_heap_edge.py", 2),
])
def test_rule_fires_on_golden_fixture(code, fixture, count):
    found = findings_for(code, fixture)
    assert [f.code for f in found] == [code] * count
    # Every finding points into the fixture with a real snippet.
    for finding in found:
        assert finding.path.endswith(fixture)
        assert finding.line > 0
        assert finding.snippet


def test_clean_fixture_is_clean():
    found, suppressed = lint_file(FIXTURES / "clean_ok.py", all_rules())
    assert found == []
    assert suppressed == 0


def test_det001_resolves_import_alias():
    # ``from time import perf_counter as pc`` must still be caught.
    lines = {f.line: f for f in findings_for("DET001", "bad_det001.py")}
    alias_hit = [f for f in lines.values() if "perf_counter" in f.message]
    assert alias_hit, "aliased perf_counter call was not resolved"


def test_det002_seeded_constructor_is_allowed():
    found = findings_for("DET002", "bad_det002.py")
    assert not any("Random(1234)" in f.snippet for f in found)
    assert any("unseeded" in f.message for f in found)


def test_det003_exempts_order_safe_wrappers():
    found = findings_for("DET003", "bad_det003.py")
    snippets = " ".join(f.snippet for f in found)
    assert "sorted(flows" not in snippets
    assert "any(f.rate" not in snippets
    # ...but the sum() accumulation over a set is flagged.
    assert any("sum(" in f.snippet for f in found)


def test_allow_paths_exempt_by_design(tmp_path):
    # The same wall-clock read is a finding on a sim path and silence
    # in the profiler / benchmarks, which measure host time by design.
    source = "import time\nt = time.time()\n"
    rule = get_rule("DET001")
    sim = tmp_path / "mod.py"
    sim.write_text(source)
    assert rule.applies_to(sim.as_posix())
    for exempt in ("obs", "benchmarks"):
        sub = tmp_path / exempt
        sub.mkdir()
        target = sub / ("profile.py" if exempt == "obs" else "run.py")
        target.write_text(source)
        assert not rule.applies_to(target.as_posix())


def test_every_registered_rule_has_code_summary_rationale():
    rules = all_rules()
    codes = [r.code for r in rules]
    assert codes == sorted(codes)
    assert len(codes) == len(set(codes))
    for rule in rules:
        assert rule.code and rule.summary and rule.rationale


def test_self_gate_src_is_clean():
    """The shipped tree must lint clean with an *empty* baseline."""
    repo = pathlib.Path(__file__).resolve().parents[2]
    result = lint_paths([repo / "src"])
    assert result.parse_errors == 0
    assert result.findings == [], [f.location() for f in result.findings]
