"""Unit tests for span critical-path attribution."""

from __future__ import annotations

import pytest

from repro.obs.critical_path import (CriticalPathAnalyzer, PHASES)
from repro.obs.spans import SpanRecorder
from repro.simkernel import SimKernel
from tests.obs.conftest import emit_named, emit_request


def _recorder():
    rec = SpanRecorder(SimKernel(seed=1))
    rec.enabled = True
    return rec


def _request(rec, start, end, phases, ok=True):
    """Emit one request tree; ``phases`` is [(name, start, end), ...]."""
    trace_id, root_id = rec.start_trace()
    for name, s, e in phases:
        emit_named(rec, name, trace_id, 0, root_id, s, e)
    emit_request(rec, trace_id, root_id, start, end, ok)
    return trace_id


def test_phases_sum_and_other_covers_the_gap():
    rec = _recorder()
    _request(rec, 0.0, 10.0, [("queue", 0.0, 1.0), ("prefill", 1.0, 3.0),
                              ("decode", 3.0, 10.0)])
    report = CriticalPathAnalyzer(rec).report()
    assert report.requests == 1 and report.skipped == 0
    entry = report.cohorts["e2e"]["all"]
    assert entry["phase_s"] == {"queue": 1.0, "prefill": 2.0,
                                "kv_transfer": 0.0, "decode": 7.0,
                                "retry": 0.0, "other": 0.0}
    assert entry["share"]["decode"] == pytest.approx(0.7)
    assert entry["top_phase"] == "decode"
    # Shares sum to 1 exactly when the phases tile the root.
    assert sum(entry["share"].values()) == pytest.approx(1.0)


def test_uninstrumented_time_lands_in_other():
    rec = _recorder()
    _request(rec, 0.0, 10.0, [("prefill", 2.0, 4.0),
                              ("decode", 4.0, 8.0)])
    entry = CriticalPathAnalyzer(rec).report().cohorts["e2e"]["all"]
    assert entry["phase_s"]["other"] == pytest.approx(4.0)
    assert entry["top_phase"] == "other"


def test_overlapping_phases_never_exceed_the_root():
    rec = _recorder()
    # Two phases over the same interval: per-phase seconds both count,
    # but "other" derives from the interval *union*, so shares stay <= 1.
    _request(rec, 0.0, 10.0, [("prefill", 0.0, 6.0),
                              ("decode", 0.0, 6.0)])
    entry = CriticalPathAnalyzer(rec).report().cohorts["e2e"]["all"]
    assert entry["phase_s"]["other"] == pytest.approx(4.0)


def test_children_clip_to_the_root_bounds():
    rec = _recorder()
    _request(rec, 2.0, 8.0, [("decode", 0.0, 20.0)])
    entry = CriticalPathAnalyzer(rec).report().cohorts["e2e"]["all"]
    assert entry["phase_s"]["decode"] == pytest.approx(6.0)
    assert entry["phase_s"]["other"] == 0.0


def test_ttft_decomposition_ends_at_last_prefill_or_kv():
    rec = _recorder()
    _request(rec, 0.0, 10.0, [("queue", 0.0, 1.0), ("prefill", 1.0, 3.0),
                              ("kv_transfer", 3.0, 4.0),
                              ("decode", 4.0, 10.0)])
    report = CriticalPathAnalyzer(rec).report()
    entry = report.cohorts["ttft"]["all"]
    assert entry["mean_s"] == pytest.approx(4.0)
    assert entry["phase_s"] == {"queue": 1.0, "prefill": 2.0,
                                "kv_transfer": 1.0, "decode": 0.0,
                                "retry": 0.0, "other": 0.0}
    assert report.top_phase("ttft", "p99") == "prefill"


def test_attempt_spans_attribute_to_retry():
    rec = _recorder()
    _request(rec, 0.0, 10.0, [("attempt", 0.0, 3.0),
                              ("decode", 5.0, 10.0)])
    entry = CriticalPathAnalyzer(rec).report().cohorts["e2e"]["all"]
    assert entry["phase_s"]["retry"] == pytest.approx(3.0)
    assert entry["phase_s"]["other"] == pytest.approx(2.0)


def test_errored_and_rootless_traces_are_skipped():
    rec = _recorder()
    _request(rec, 0.0, 10.0, [("decode", 0.0, 10.0)], ok=False)
    # A trace with phase spans but no request root (lost root).
    trace_id, root_id = rec.start_trace()
    emit_named(rec, "decode", trace_id, 0, root_id, 0.0, 5.0)
    _request(rec, 0.0, 4.0, [("decode", 0.0, 4.0)])
    report = CriticalPathAnalyzer(rec).report()
    assert report.requests == 1
    assert report.skipped == 2


def test_cohorts_split_by_rank_and_keep_the_slowest_in_p99():
    rec = _recorder()
    for i in range(100):
        _request(rec, 0.0, float(i + 1),
                 [("decode", 0.0, float(i + 1))])
    cohorts = CriticalPathAnalyzer(rec).report().cohorts["e2e"]
    assert [cohorts[c]["n"] for c in
            ("all", "p50", "p50_p90", "p90_p99", "p99")] == \
        [100, 50, 40, 9, 1]
    # The single p99 member is the slowest request.
    assert cohorts["p99"]["mean_s"] == pytest.approx(100.0)
    assert cohorts["p50"]["mean_s"] < cohorts["p90_p99"]["mean_s"]


def test_empty_recorder_yields_an_empty_report():
    report = CriticalPathAnalyzer(_recorder()).report()
    assert report.requests == 0 and report.cohorts == {}
    assert report.top_phase("e2e", "p99") == ""
    assert len(report.digest()) == 64


def test_digest_is_deterministic_and_change_sensitive():
    def run(end):
        rec = _recorder()
        _request(rec, 0.0, end, [("decode", 0.0, end)])
        return CriticalPathAnalyzer(rec).report().digest()

    assert run(10.0) == run(10.0)
    assert run(10.0) != run(11.0)


def test_to_json_and_table_render():
    rec = _recorder()
    _request(rec, 0.0, 10.0, [("queue", 0.0, 1.0),
                              ("decode", 1.0, 10.0)])
    report = CriticalPathAnalyzer(rec).report()
    doc = report.to_json()
    assert doc["requests"] == 1 and doc["digest"] == report.digest()
    text = report.table("e2e")
    assert text.startswith("critical-path attribution by e2e cohort")
    assert "decode" in text and "p99" in text
    for name in PHASES:
        assert name in text
