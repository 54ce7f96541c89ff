"""The orchestrator's one run loop: a single fault and a game day agree.

``run_case`` is a one-event plan on the loop ``run_gameday`` walks, so
the same fault at the same time must leave the same simulation behind.
Only the report label and the resilience scoring differ.
"""

from __future__ import annotations

from repro.chaos import ChaosOrchestrator, SupervisorConfig, catalog
from repro.chaos.runner import ChaosRunConfig, case_spec

CONFIG = ChaosRunConfig(horizon=1800.0, inject_at=600.0,
                        fault_duration=300.0)


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
    assert [s["scenario"] for s in day["resilience"]["gameday"]] == \
        ["node_crash"]
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
