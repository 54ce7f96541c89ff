"""The orchestrator's one run loop and one scorer.

``run_case`` is a one-event plan on the loop ``run_gameday`` walks, so
the same fault at the same time must leave the same simulation behind
and the same score: the game day's one window is the case's report.
Only the report label and the resilience block's layout differ.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign import ChaosEventSpec, play
from repro.chaos import ChaosOrchestrator, SupervisorConfig, catalog
from repro.chaos.runner import (ChaosRunConfig, PLATFORM_FLEETS,
                                case_spec, run_case)
from repro.errors import ConfigurationError
from repro.fleet import AutoscalerConfig

CONFIG = ChaosRunConfig(horizon=1800.0, inject_at=600.0,
                        fault_duration=300.0)
#: The keys of a game-day segment row.
SEGMENT_KEYS = {"scenario", "layer", "injected_at_s", "detail",
                "detected_at_s", "recovered_at_s", "mttr_s",
                "detection_delay_alert_s", "requests_lost",
                "requests_retried", "error"}


def _play(arm: str) -> tuple[str, dict]:
    spec = case_spec(CONFIG, "hops")
    fleet = spec.build_fleet(spec.build_site())
    orchestrator = ChaosOrchestrator(
        fleet,
        supervisor=SupervisorConfig(interval=spec.supervisor_interval),
        probe_interval=spec.probe_interval)
    (scenario,) = catalog(names=["node_crash"])
    schedule = spec.schedule.build()

    def run(env):
        yield from fleet.start(initial_replicas=spec.initial_replicas)
        if arm == "case":
            report, _res = yield from orchestrator.run_case(
                scenario, schedule, spec.horizon, CONFIG.inject_at,
                fault_duration=CONFIG.fault_duration)
        else:
            report, _segments = yield from orchestrator.run_gameday(
                [(CONFIG.inject_at, scenario)], schedule, spec.horizon,
                fault_duration=CONFIG.fault_duration)
        return report

    kernel = fleet.kernel
    report = kernel.run(until=kernel.spawn(run(kernel)))
    digest = kernel.trace.digest()
    fleet.shutdown()
    return digest, report.to_json()


def test_run_case_is_a_one_event_gameday():
    case_digest, case = _play("case")
    day_digest, day = _play("gameday")
    assert case_digest == day_digest
    assert case["label"] == "chaos:node_crash"
    assert day["label"] == "chaos:gameday"
    assert case["resilience"]["recovery_ok"]
    # One scorer: the game day's one segment is the case's report cut
    # to the segment keys, and the run-level blocks and the whole-cell
    # verdict are the case's too.
    (segment,) = day["resilience"]["gameday"]
    assert segment == {k: v for k, v in case["resilience"].items()
                       if k in SEGMENT_KEYS}
    for key in ("repair_events", "incidents", "recovery_ok", "mttr_s"):
        assert day["resilience"][key] == case["resilience"][key], key
    for key in ("slo", "scale_events", "obs"):
        assert case[key] == day[key], key
    # The fault really ran: the supervisor repaired the crashed node.
    assert case["resilience"]["injected_at_s"] is not None
    assert case["resilience"]["repair_events"]
    assert case["obs"]["alerts"]["digest"]
    # Whole reports match once the two permitted differences are out.
    for report in (case, day):
        del report["label"], report["resilience"]
    assert case == day


def _chaos_spec(fleet_platform: str, *events):
    """``case_spec`` with ``(scenario, inject_at, fault_duration)``
    chaos events."""
    return dataclasses.replace(
        case_spec(CONFIG, fleet_platform),
        chaos=tuple(ChaosEventSpec(*event) for event in events))


@pytest.mark.parametrize("name,kind", [("registry_outage", "hpc"),
                                       ("pod_eviction", "k8s")])
def test_matrix_case_is_the_played_spec(name, kind):
    """A chaos-matrix cell is ``case_spec`` plus one chaos event, played
    by the campaign driver: the same report, the same typed score."""
    _row, report, res = run_case(name, kind, CONFIG)
    played, _fleet, _digest = play(_chaos_spec(
        PLATFORM_FLEETS[kind],
        (name, CONFIG.inject_at, CONFIG.fault_duration)))
    assert report.to_json() == played.to_json()
    assert report.faults == [res]
    assert report.resilience == res.to_json()


def test_gameday_needs_a_fault():
    spec = case_spec(CONFIG, "hops")
    orchestrator = ChaosOrchestrator(spec.build_fleet(spec.build_site()))
    with pytest.raises(ConfigurationError):
        next(orchestrator.run_gameday([], spec.schedule.build(),
                                      spec.horizon))


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
        case_spec(ChaosRunConfig(), "hops"), initial_replicas=3,
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
