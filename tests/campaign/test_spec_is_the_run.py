"""The spec is the run: the fleet's run API reads its ``ScenarioSpec``.

``Fleet(spec)`` builds its own site from the spec, and
``Fleet.start()``, ``Fleet.run_scenario()`` and
``ChaosOrchestrator.run()`` take no arguments, so a run cannot disagree
with the spec that was checked when it was built: the site, replica
count, traffic, horizon, label, faults and fault target are the spec's.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign import (ChaosEventSpec, ScenarioSpec, ScheduleSpec,
                            SiteSpec, play)
from repro.chaos import ChaosOrchestrator
from repro.chaos.runner import case_spec
from repro.errors import ConfigurationError
from repro.fleet import AutoscalerConfig, Fleet

SPEC = ScenarioSpec(
    name="spec-run", seed=5, horizon=900.0, initial_replicas=2,
    schedule=ScheduleSpec(kind="poisson", rate_rps=0.2),
    autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=3))

#: The keys of a game-day segment row.
SEGMENT_KEYS = {"scenario", "layer", "injected_at_s", "detail",
                "detected_at_s", "recovered_at_s", "mttr_s",
                "detection_delay_alert_s", "requests_lost",
                "requests_retried", "error"}


def _chaos(*events) -> ScenarioSpec:
    """A half-hour hops chaos cell with ``(scenario, inject_at,
    fault_duration)`` events."""
    return dataclasses.replace(
        case_spec(events[0][0], "hops"), horizon=1800.0,
        chaos=tuple(ChaosEventSpec(*event) for event in events))


@pytest.mark.parametrize("disagg", [False, True])
def test_start_deploys_the_specs_initial_replicas(disagg):
    spec = dataclasses.replace(SPEC, disagg=disagg)
    fleet = Fleet(spec)
    kernel = fleet.kernel
    kernel.run(until=kernel.spawn(fleet.start()))
    roles = sorted(replica.role for replica in fleet.replicas)
    # Under disagg the initial replicas are the decode pool, beside the
    # spec's fixed prefill pool.
    assert roles == (["decode", "decode", "prefill"] if disagg
                     else ["unified", "unified"])
    # The scenario is the spec's too: its traffic, its label.
    report = kernel.run(until=kernel.spawn(fleet.run_scenario()))
    assert report.label == "spec-run"
    assert report.arrivals > 0 and report.sessions is None
    fleet.shutdown()


def test_one_fault_reports_its_window():
    report, _fleet, _digest = play(_chaos(("node_crash", 600.0, 300.0)))
    (window,) = report.faults
    assert report.label == "chaos:node_crash"
    assert report.resilience == window.to_json()
    assert window.recovery_ok
    assert window.injected_at > 0
    assert report.resilience["repair_events"]
    assert report.obs["alerts"]["digest"]


def test_several_faults_report_a_gameday():
    # Listed out of order: the faults play in ``inject_at`` order.
    report, _fleet, _digest = play(_chaos(
        ("node_crash", 900.0, 300.0), ("engine_oom", 300.0, 200.0)))
    assert report.label == "chaos:gameday"
    assert [w.scenario for w in report.faults] == ["engine_oom",
                                                   "node_crash"]
    rows = [window.to_json() for window in report.faults]
    block = report.resilience
    assert block["gameday"] == [
        {k: v for k, v in row.items() if k in SEGMENT_KEYS} for row in rows]
    for key in ("repair_events", "incidents"):
        assert block[key] == rows[0][key] == rows[1][key], key
    assert block["recovery_ok"] == all(w.recovery_ok for w in report.faults)
    mttrs = [w.mttr_s for w in report.faults]
    assert block["mttr_s"] == (None if None in mttrs
                               else max(row["mttr_s"] for row in rows))


def test_run_needs_a_fault():
    fleet = Fleet(SPEC)
    with pytest.raises(ConfigurationError, match="at least one fault"):
        next(ChaosOrchestrator(fleet).run())



def test_fleet_builds_the_specs_site():
    spec = dataclasses.replace(SPEC, seed=9, site=SiteSpec(
        hops_nodes=3, eldorado_nodes=1, goodall_nodes=2, cee_nodes=0))
    fleet = Fleet(spec)
    site = fleet.site
    assert fleet.kernel is site.kernel
    assert site.kernel.rng.root_seed == spec.seed
    assert [len(site.hops.nodes), len(site.eldorado.nodes),
            len(site.goodall.cluster.nodes),
            len(site.cee.cluster.nodes)] == [3, 1, 2, 0]
    # The spec is the only way in: a hand-built site is refused.
    hand_built = spec.build_site()
    with pytest.raises(TypeError):
        Fleet(hand_built, spec)


def _eviction(platforms) -> ScenarioSpec:
    """A half-hour chaos cell on ``platforms`` with one pod eviction."""
    return dataclasses.replace(
        case_spec("node_crash", "hops"), platforms=platforms,
        horizon=1800.0, chaos=(ChaosEventSpec("pod_eviction", 600.0, 300.0),))


def test_chaos_targets_the_first_platform_its_faults_support():
    spec = _eviction(("hops", "goodall"))
    assert spec.chaos_platform == "goodall"
    # A fault every platform kind supports keeps the first platform.
    assert _chaos(("node_crash", 600.0, 300.0)).chaos_platform == "hops"
    report, fleet, _digest = play(spec)
    (window,) = report.faults
    assert window.error is None and window.platform == "goodall"
    assert dict(fleet.placements)[window.detail["victim"]] == "goodall"


def test_chaos_no_listed_platform_supports_is_refused():
    with pytest.raises(ConfigurationError, match="pod_eviction"):
        _eviction(("hops",))
