"""The orchestrator's one run and one scorer.

``ChaosOrchestrator.run()`` plays the faults of the fleet's spec: each
fault scores over its own window, up to the next injection or the run's
end.  The report's label and resilience layout follow the fault count
(see tests/campaign/test_spec_is_the_run.py).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign import ChaosEventSpec, play
from repro.chaos.runner import PLATFORM_FLEETS, case_spec, run_case
from repro.fleet import AutoscalerConfig

#: Chaos cells here run half an hour, not the matrix's quick hour.
HORIZON = 1800.0


def _chaos_spec(fleet_platform: str, *events):
    """``case_spec`` over ``HORIZON`` with ``(scenario, inject_at,
    fault_duration)`` chaos events."""
    return dataclasses.replace(
        case_spec(events[0][0], fleet_platform), horizon=HORIZON,
        chaos=tuple(ChaosEventSpec(*event) for event in events))


@pytest.mark.parametrize("name,kind", [("registry_outage", "hpc"),
                                       ("pod_eviction", "k8s")])
def test_matrix_case_is_the_played_spec(name, kind):
    """A chaos-matrix case is its spec played by the campaign driver:
    the same report, the same typed score."""
    spec = _chaos_spec(PLATFORM_FLEETS[kind], (name, 600.0, 300.0))
    _row, report, res = run_case(spec, kind)
    played, _fleet, _digest = play(spec)
    assert report.to_json() == played.to_json()
    assert report.faults == [res]
    assert report.resilience == res.to_json()


def test_gameday_windows_end_at_the_next_injection():
    """Each fault is scored up to the next injection only: a fault still
    impaired when the next one lands has not recovered, and the alerts,
    responses and retries after that belong to the next fault."""
    report, fleet, _digest = play(_chaos_spec(
        "hops", ("engine_oom", 300.0, 200.0), ("node_crash", 500.0, 200.0)))
    first, second = report.faults
    split = second.injected_at
    assert first.detected_at is not None and first.recovered_at is None
    assert not first.recovery_ok and second.recovery_ok
    assert report.resilience["recovery_ok"] is False
    assert report.resilience["mttr_s"] is None
    alerts = fleet.alerts
    assert first.alerts_fired == alerts.fired_count(first.injected_at,
                                                    split) >= 1
    assert second.alerts_fired == alerts.fired_count(split) >= 1
    assert first.injected_at + first.first_response_s < split

    report, fleet, _digest = play(_chaos_spec(
        "hops", ("engine_oom", 300.0, 200.0), ("engine_oom", 900.0, 200.0)))
    retried = [window.requests_retried for window in report.faults]
    assert min(retried) >= 1
    assert sum(retried) == fleet.router_app.retried_ok


def test_scale_down_does_not_leave_infra_bad():
    """An idle scale-down below the starting replica count is not an
    impairment: infrastructure is whole when no replacement is owed or
    deploying, so a later fault's window still recovers."""
    spec = dataclasses.replace(
        case_spec("engine_oom"), initial_replicas=3,
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4,
                                    target_outstanding=8.0),
        horizon=3 * 3600.0,
        chaos=(ChaosEventSpec("engine_oom", 5400.0, 600.0),))
    report, _fleet, _digest = play(spec)
    downs = [e for e in report.scale_events if e.action == "down"]
    assert [e.replicas_after for e in downs[:2]] == [2, 1]
    assert downs[1].time < 5400.0
    (res,) = report.faults
    assert res.recovery_ok
    assert res.detected_at - res.injected_at == pytest.approx(30.0)
    assert res.mttr_s == pytest.approx(675.0)
