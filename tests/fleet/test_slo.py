"""Tests for SLO specs, rolling windows, and the run scorecard."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.fleet.slo import RequestRecord, SloSpec, SloTracker
from repro.simkernel import SimKernel


def _record(t, ttft=0.5, latency=2.0, tenant="t", ok=True, tokens=100):
    return RequestRecord(tenant=tenant, submitted=t - latency, completed=t,
                         ttft=ttft, latency=latency, prompt_tokens=50,
                         output_tokens=tokens, ok=ok,
                         error="" if ok else "boom")


@pytest.fixture
def tracker():
    kernel = SimKernel(seed=0)
    spec = SloSpec(ttft_target=1.0, e2e_target=10.0, max_error_rate=0.1,
                   window=100.0)
    return kernel, SloTracker(kernel, spec)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SloSpec(ttft_target=0.0)
    with pytest.raises(ConfigurationError):
        SloSpec(percentile=100.0)
    with pytest.raises(ConfigurationError):
        SloSpec(window=-1.0)


#: RequestRecord's fields in constructor order; positional callers (the
#: session tests' stub server) rely on it.
RECORD_FIELDS = ("tenant", "submitted", "completed", "ttft", "latency",
                 "prompt_tokens", "output_tokens", "ok", "error", "session",
                 "turn", "cached_tokens", "path", "kv_transfer_s")


def test_record_field_order_and_positional_construction():
    assert RequestRecord._fields == RECORD_FIELDS
    values = ("t", 1.0, 3.0, 0.25, 2.0, 50, 7, False, "boom", "s1", 2, 16,
              "disagg", 0.125)
    by_position = RequestRecord(*values)
    assert by_position == RequestRecord(**dict(zip(RECORD_FIELDS, values)))
    assert [getattr(by_position, name) for name in RECORD_FIELDS] == \
        list(values)
    assert RequestRecord("t", 0.0, 1.0, ttft=0.1, latency=1.0) == \
        RequestRecord(tenant="t", submitted=0.0, completed=1.0, ttft=0.1,
                      latency=1.0, prompt_tokens=0, output_tokens=0,
                      ok=True, error="", session="", turn=0,
                      cached_tokens=0, path="unified", kv_transfer_s=0.0)


def test_record_rejects_every_attribute_assignment_and_has_no_dict():
    record = _record(1.0)
    for name in RECORD_FIELDS:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_good_and_bad_requests_counted(tracker):
    kernel, slo = tracker
    slo.note_submitted(4)
    slo.observe(_record(10.0))                          # good
    slo.observe(_record(11.0, ttft=5.0))                # ttft violated
    slo.observe(_record(12.0, latency=60.0))            # e2e violated
    slo.observe(_record(13.0, ok=False))                # error
    report = slo.report()
    assert report.submitted == 4
    assert report.completed == 3
    assert report.errors == 1
    assert report.good == 1
    assert report.attainment == pytest.approx(0.25)
    assert report.error_rate == pytest.approx(0.25)
    assert report.output_tokens == 300


def test_per_tenant_breakdown(tracker):
    _, slo = tracker
    slo.observe(_record(1.0, tenant="chat"))
    slo.observe(_record(2.0, tenant="chat", ttft=9.0))
    slo.observe(_record(3.0, tenant="batch"))
    report = slo.report()
    assert report.per_tenant["chat"].completed == 2
    assert report.per_tenant["chat"].attainment == pytest.approx(0.5)
    assert report.per_tenant["batch"].attainment == 1.0


def test_window_trims_old_records(tracker):
    kernel, slo = tracker
    for t in (0.0, 10.0, 20.0):
        slo.observe(_record(t))
    kernel.now = 50.0
    assert slo.snapshot().completions == 3
    kernel.now = 115.0          # 0.0 and 10.0 fall outside the 100s window
    assert slo.snapshot().completions == 1
    # The whole-run report still sees everything.
    assert slo.report().completed == 3


def test_snapshot_percentiles_and_slo_met(tracker):
    kernel, slo = tracker
    kernel.now = 50.0
    for i in range(20):
        slo.observe(_record(30.0 + i, ttft=0.2, latency=1.0))
    snap = slo.snapshot()
    assert snap.slo_met
    # Percentiles come from the shared streaming estimator: exact to
    # within its documented relative-error bound (~1%), not bit-exact.
    assert snap.ttft_p95 == pytest.approx(
        0.2, rel=slo._w_ttft.rel_error_bound())
    assert snap.goodput_rps == snap.throughput_rps > 0
    # Now blow the TTFT target at the tracked percentile.
    for i in range(20):
        slo.observe(_record(49.0, ttft=3.0, latency=1.0))
    snap = slo.snapshot()
    assert not snap.slo_met
    assert snap.attainment == pytest.approx(0.5)
    assert snap.goodput_rps < snap.throughput_rps


def test_empty_snapshot_is_healthy(tracker):
    _, slo = tracker
    snap = slo.snapshot()
    assert snap.completions == 0
    assert snap.slo_met
    assert snap.attainment == 1.0


def test_error_rate_gates_slo(tracker):
    kernel, slo = tracker
    kernel.now = 10.0
    for i in range(8):
        slo.observe(_record(5.0))
    for i in range(2):
        slo.observe(_record(6.0, ok=False))
    snap = slo.snapshot()
    assert snap.error_rate == pytest.approx(0.2)
    assert not snap.slo_met          # max_error_rate is 0.1


def test_report_serializes(tracker):
    _, slo = tracker
    slo.note_submitted(2)
    slo.observe(_record(1.0))
    slo.observe(_record(2.0, ok=False))
    blob = json.dumps(slo.report().to_json())
    parsed = json.loads(blob)
    assert parsed["completed"] == 1
    assert parsed["slo"]["name"] == "interactive"
    assert "p95" in parsed["ttft_s"]
    assert slo.report().summary()    # renders without raising


def test_observe_builds_per_path_and_per_tenant_state_once(tracker,
                                                          monkeypatch):
    """A path's TTFT aggregate and a tenant's stats are built on first
    sight, not as a throwaway default on every observation."""
    from repro.fleet import slo as slo_module

    built = {"turn": 0, "tenant": 0}

    class CountingTurnTtft(slo_module._TurnTtft):
        def __init__(self, *args, **kwargs):
            built["turn"] += 1
            super().__init__(*args, **kwargs)

    class CountingTenantStats(slo_module.TenantStats):
        def __init__(self, *args, **kwargs):
            built["tenant"] += 1
            super().__init__(*args, **kwargs)

    _, slo = tracker
    monkeypatch.setattr(slo_module, "_TurnTtft", CountingTurnTtft)
    monkeypatch.setattr(slo_module, "TenantStats", CountingTenantStats)
    for i in range(1000):
        slo.observe(_record(1.0 + i * 0.01))
    assert built == {"turn": 1, "tenant": 1}
    report = slo.report()
    assert report.completed == 1000
    assert report.per_tenant["t"].completed == 1000
