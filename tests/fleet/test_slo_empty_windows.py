"""Zero-request windows must be well-defined, finite, and serializable."""

from __future__ import annotations

import json
import math

import pytest

from repro.fleet.report import FleetReport
from repro.fleet.slo import RequestRecord, SloSpec, SloTracker
from repro.simkernel import SimKernel


@pytest.fixture
def tracker():
    return SloTracker(SimKernel(seed=7), SloSpec())


def _assert_all_finite(payload, path="$"):
    if isinstance(payload, dict):
        for key, value in payload.items():
            _assert_all_finite(value, f"{path}.{key}")
    elif isinstance(payload, (list, tuple)):
        for i, value in enumerate(payload):
            _assert_all_finite(value, f"{path}[{i}]")
    elif isinstance(payload, float):
        assert math.isfinite(payload), f"non-finite value at {path}"


def test_empty_window_snapshot_is_vacuously_healthy(tracker):
    snap = tracker.snapshot()
    assert snap.samples == 0
    assert snap.completions == 0 and snap.errors == 0
    assert snap.attainment == 1.0
    assert snap.slo_met is True
    assert snap.throughput_rps == 0.0 and snap.goodput_rps == 0.0
    _assert_all_finite(snap.row())
    json.dumps(snap.row(), allow_nan=False)     # must not raise


def test_empty_report_serializes_without_nan(tracker):
    report = tracker.report()
    assert report.attainment == 1.0
    assert report.error_rate == 0.0
    assert report.goodput_rps == 0.0
    payload = report.to_json()
    _assert_all_finite(payload)
    json.dumps(payload, allow_nan=False)
    assert report.ttft_percentiles == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    assert "0 submitted" in report.summary()


def test_errors_only_window_is_finite_and_unhealthy(tracker):
    tracker.note_submitted()
    tracker.observe(RequestRecord(tenant="a", submitted=0.0, completed=0.0,
                                  ttft=0.0, latency=0.0, ok=False,
                                  error="boom"))
    snap = tracker.snapshot()
    assert snap.samples == 1 and snap.errors == 1 and snap.completions == 0
    assert snap.error_rate == 1.0
    assert snap.slo_met is False                # error budget blown
    _assert_all_finite(snap.row())
    payload = tracker.report().to_json()
    _assert_all_finite(payload)
    json.dumps(payload, allow_nan=False)


def test_window_that_drains_back_to_empty_recovers_defaults(tracker):
    kernel = tracker.kernel
    tracker.observe(RequestRecord(tenant="a", submitted=0.0, completed=0.0,
                                  ttft=1.0, latency=2.0))
    kernel.run(until=tracker.spec.window + 10.0)
    snap = tracker.snapshot()                   # record aged out
    assert snap.samples == 0
    assert snap.attainment == 1.0 and snap.slo_met is True


def test_zero_arrival_fleet_report_serializes(tracker):
    report = FleetReport(label="idle", duration=0.0, arrivals=0,
                         slo=tracker.report(), scale_events=[],
                         replica_timeline=[])
    assert report.peak_replicas == 0 and report.final_replicas == 0
    assert report.replica_seconds == 0.0
    payload = report.to_json()
    _assert_all_finite(payload)
    json.dumps(payload, allow_nan=False)
    assert "0 arrivals" in report.summary()


def test_replica_seconds_integrates_timeline():
    tracker = SloTracker(SimKernel(seed=7), SloSpec())
    report = FleetReport(label="x", duration=100.0, arrivals=0,
                         slo=tracker.report(), scale_events=[],
                         replica_timeline=[(0.0, 1), (40.0, 3),
                                           (80.0, 2)])
    # 40s at 1 + 40s at 3 + 20s at 2
    assert report.replica_seconds == pytest.approx(40 + 120 + 40)
