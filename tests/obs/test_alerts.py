"""Unit tests for the declarative SLO alert evaluator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.alerts import (AlertEvaluator, AlertRule, RULE_KINDS,
                              default_slo_rules)
from repro.obs.metrics import MetricsRegistry
from repro.obs.scrape import MetricsScraper
from repro.simkernel import SimKernel


def _setup(interval=10.0):
    kernel = SimKernel(seed=1)
    reg = MetricsRegistry()
    scraper = MetricsScraper(kernel, reg, interval=interval)
    return kernel, reg, scraper


def _tick(kernel, scraper, evaluator, dt=10.0):
    """One cadence step: advance, scrape, then evaluate (fleet order)."""
    kernel.run(until=kernel.now + dt)
    scraper.scrape_once()
    evaluator.evaluate_at(kernel.now)


# -- rule validation ---------------------------------------------------------------


def test_rule_kind_catalog():
    assert RULE_KINDS == ("threshold", "absence", "burn_rate")


@pytest.mark.parametrize("kwargs", [
    dict(name="", kind="threshold", series="x"),
    dict(name="r", kind="nope"),
    dict(name="r", kind="threshold", series="x", severity="email"),
    dict(name="r", kind="threshold", series=""),
    dict(name="r", kind="threshold", series="x", op="=="),
    dict(name="r", kind="threshold", series="x", for_s=-1.0),
    dict(name="r", kind="absence", series=""),
    dict(name="r", kind="absence", series="x", max_silence_s=0.0),
    dict(name="r", kind="burn_rate", bad_series=(), total_series=("t",)),
    dict(name="r", kind="burn_rate", bad_series=("b",), total_series=()),
    dict(name="r", kind="burn_rate", bad_series=("b",),
         total_series=("t",), budget=0.0, long_s=10, short_s=5),
    dict(name="r", kind="burn_rate", bad_series=("b",),
         total_series=("t",), budget=1.0, long_s=10, short_s=5),
    dict(name="r", kind="burn_rate", bad_series=("b",),
         total_series=("t",), budget=0.1, long_s=5, short_s=10),
    dict(name="r", kind="burn_rate", bad_series=("b",),
         total_series=("t",), budget=0.1, long_s=10, short_s=5,
         factor=0.0),
])
def test_bad_rules_fail_at_construction(kwargs):
    with pytest.raises(ConfigurationError):
        AlertRule(**kwargs)


def test_rule_to_json_is_kind_specific():
    thr = AlertRule(name="t", kind="threshold", series="s", op=">=",
                    threshold=2.0, for_s=30.0)
    assert thr.to_json() == {"name": "t", "kind": "threshold",
                             "severity": "page", "series": "s",
                             "op": ">=", "threshold": 2.0, "for_s": 30.0}
    ab = AlertRule(name="a", kind="absence", severity="ticket",
                   series="s", max_silence_s=60.0)
    assert ab.to_json()["max_silence_s"] == 60.0
    assert "op" not in ab.to_json()


def test_duplicate_rule_names_rejected():
    kernel, reg, scraper = _setup()
    rule = AlertRule(name="dup", kind="absence", series="x",
                     max_silence_s=5.0)
    with pytest.raises(ConfigurationError, match="dup"):
        AlertEvaluator(kernel, scraper, [rule, rule])


def test_evaluator_interval_must_be_positive():
    # The evaluator runs at the scraper's cadence, which the scraper
    # validates (tests/obs/test_scrape.py).
    kernel, reg, scraper = _setup()
    assert AlertEvaluator(kernel, scraper, []).to_json()["interval"] == 10.0


# -- threshold lifecycle -----------------------------------------------------------


def test_threshold_pending_then_firing_then_resolved():
    kernel, reg, scraper = _setup()
    g = reg.gauge("load").labels()
    rule = AlertRule(name="hot", kind="threshold", series="load",
                     op=">", threshold=5.0, for_s=20.0)
    ev = AlertEvaluator(kernel, scraper, [rule])
    g.set(1.0)
    _tick(kernel, scraper, ev)            # t=10: green
    g.set(9.0)
    _tick(kernel, scraper, ev)            # t=20: enters pending
    _tick(kernel, scraper, ev)            # t=30: 10 s pending < for_s
    _tick(kernel, scraper, ev)            # t=40: 20 s pending -> firing
    g.set(2.0)
    _tick(kernel, scraper, ev)            # t=50: resolved
    assert [(e.time, e.state) for e in ev.events] == [
        (20.0, "pending"), (40.0, "firing"), (50.0, "resolved")]
    assert ev.firing() == []
    assert ev.first_firing(0.0) == 40.0
    assert ev.fired_count() == 1
    assert ev.evaluations == 5


def test_threshold_without_for_fires_immediately():
    kernel, reg, scraper = _setup()
    g = reg.gauge("replicas").labels()
    rule = AlertRule(name="cap", kind="threshold", series="replicas",
                     op="<", threshold=2.0)
    ev = AlertEvaluator(kernel, scraper, [rule])
    g.set(2.0)
    _tick(kernel, scraper, ev)
    g.set(1.0)
    _tick(kernel, scraper, ev)
    assert [(e.time, e.state) for e in ev.events] == [(20.0, "firing")]
    assert ev.firing() == ["cap"]


def test_threshold_pending_that_recovers_never_fires():
    kernel, reg, scraper = _setup()
    g = reg.gauge("load").labels()
    rule = AlertRule(name="hot", kind="threshold", series="load",
                     op=">", threshold=5.0, for_s=20.0)
    ev = AlertEvaluator(kernel, scraper, [rule])
    g.set(9.0)
    _tick(kernel, scraper, ev)            # pending at t=10
    g.set(1.0)
    _tick(kernel, scraper, ev)            # drops back silently
    assert [e.state for e in ev.events] == ["pending"]
    assert ev.fired_count() == 0


def test_threshold_on_missing_series_stays_green():
    kernel, reg, scraper = _setup()
    rule = AlertRule(name="ghost", kind="threshold", series="nope",
                     op=">", threshold=0.0)
    ev = AlertEvaluator(kernel, scraper, [rule])
    _tick(kernel, scraper, ev)
    assert ev.events == []


# -- absence -----------------------------------------------------------------------


def test_absence_fires_on_silence_and_resolves_on_traffic():
    kernel, reg, scraper = _setup()
    c = reg.counter("oks").labels()
    rule = AlertRule(name="quiet", kind="absence", series="oks",
                     max_silence_s=25.0)
    ev = AlertEvaluator(kernel, scraper, [rule])
    c.inc()
    _tick(kernel, scraper, ev)            # t=10: change recorded
    _tick(kernel, scraper, ev)            # t=20: 10 s silent
    _tick(kernel, scraper, ev)            # t=30: 20 s silent
    _tick(kernel, scraper, ev)            # t=40: 30 s >= 25 -> firing
    c.inc()
    _tick(kernel, scraper, ev)            # t=50: traffic -> resolved
    assert [(e.time, e.state) for e in ev.events] == [
        (40.0, "firing"), (50.0, "resolved")]
    # The firing event reports the silence measurement itself.
    assert ev.events[0].value == 30.0


def test_absence_of_a_never_seen_series_counts_from_start():
    kernel, reg, scraper = _setup()
    rule = AlertRule(name="quiet", kind="absence", series="oks",
                     max_silence_s=25.0)
    ev = AlertEvaluator(kernel, scraper, [rule])
    for _ in range(3):
        _tick(kernel, scraper, ev)
    assert [(e.time, e.state) for e in ev.events] == [(30.0, "firing")]


# -- burn rate ---------------------------------------------------------------------


def test_burn_rate_fires_on_both_windows_and_resolves_on_short():
    kernel, reg, scraper = _setup()
    ok = reg.counter("ok").labels()
    err = reg.counter("err").labels()
    rule = AlertRule(name="burn", kind="burn_rate", bad_series=("err",),
                     total_series=("ok", "err"), budget=0.1,
                     long_s=40.0, short_s=10.0, factor=2.0)
    ev = AlertEvaluator(kernel, scraper, [rule])
    err.inc(10)
    _tick(kernel, scraper, ev)            # t=10: ratio 1.0 -> burn 10
    assert [(e.time, e.state) for e in ev.events] == [(10.0, "firing")]
    ok.inc(10)
    _tick(kernel, scraper, ev)            # t=20: short window all-ok
    # Long window still burns (10 bad / 20 total / 0.1 = 5 > 2) but the
    # short window is clean, so the multi-window rule resolves fast.
    assert ev.burn_over(rule, 20.0, 40.0) == pytest.approx(5.0)
    assert ev.burn_over(rule, 20.0, 10.0) == 0.0
    assert ev.events[-1].state == "resolved"


def test_burn_rate_empty_window_is_vacuously_healthy():
    kernel, reg, scraper = _setup()
    rule = AlertRule(name="burn", kind="burn_rate", bad_series=("err",),
                     total_series=("ok", "err"), budget=0.1,
                     long_s=40.0, short_s=10.0, factor=2.0)
    ev = AlertEvaluator(kernel, scraper, [rule])
    _tick(kernel, scraper, ev)
    assert ev.burn_over(rule, kernel.now, 40.0) == 0.0
    assert ev.events == []


# -- digests and serialization -----------------------------------------------------


def test_digest_is_deterministic_and_event_sensitive():
    def run(spike):
        kernel, reg, scraper = _setup()
        g = reg.gauge("load").labels()
        rule = AlertRule(name="hot", kind="threshold", series="load",
                         op=">", threshold=5.0)
        ev = AlertEvaluator(kernel, scraper, [rule])
        g.set(9.0 if spike else 1.0)
        _tick(kernel, scraper, ev)
        return ev.digest()

    assert run(True) == run(True)
    assert run(True) != run(False)


def test_to_json_shape():
    kernel, reg, scraper = _setup()
    g = reg.gauge("load").labels()
    g.set(9.0)
    rule = AlertRule(name="hot", kind="threshold", series="load",
                     op=">", threshold=5.0)
    ev = AlertEvaluator(kernel, scraper, [rule])
    _tick(kernel, scraper, ev)
    doc = ev.to_json()
    assert doc["interval"] == 10.0
    assert doc["rules"] == [rule.to_json()]
    assert doc["evaluations"] == 1
    assert doc["events"] == [{"t": 10.0, "rule": "hot",
                              "state": "firing", "value": 9.0}]
    assert doc["firing"] == ["hot"]
    assert doc["fired_total"] == 1
    assert doc["digest"] == ev.digest() and len(doc["digest"]) == 64


# -- the stock rule set ------------------------------------------------------------


def test_default_slo_rules_cover_the_playbook():
    rules = default_slo_rules(ttft_target=10.0, e2e_target=120.0,
                              max_error_rate=0.02, interval=300.0)
    by_name = {r.name: r for r in rules}
    assert set(by_name) == {
        "error-budget-fast-burn", "error-budget-slow-burn",
        "slo-ttft-breach", "slo-e2e-breach", "slo-attainment-low",
        "backend-unhealthy", "traffic-absent"}
    fast = by_name["error-budget-fast-burn"]
    assert (fast.long_s, fast.short_s, fast.factor) == (1200.0, 300.0,
                                                        14.4)
    assert fast.budget == 0.02
    assert by_name["slo-ttft-breach"].threshold == 10.0
    assert by_name["slo-attainment-low"].threshold == 0.95
    assert by_name["traffic-absent"].kind == "absence"


def test_default_slo_rules_add_capacity_floor_when_stated():
    rules = default_slo_rules(ttft_target=10.0, e2e_target=120.0,
                              max_error_rate=0.02, min_replicas=2)
    cap = {r.name: r for r in rules}["fleet-capacity-low"]
    assert (cap.series, cap.op, cap.threshold) == ("fleet_replicas",
                                                   "<", 2.0)
    assert cap.for_s == 0.0 and cap.severity == "page"
