"""The pre-existing vllm fault triggers, end-to-end through Fleet
recovery — not just engine death.

``CrashAtTime`` and ``CrashOnConcurrency`` predate the chaos subsystem
(they reproduce the paper's Fig. 12 run-1 crash at the engine level).
These tests arm them on live fleet replicas and assert the whole
recovery chain: engine crash -> container exit -> router failover ->
supervisor replacement -> SLO re-attained, with no request lost.
"""

from __future__ import annotations

import pytest

from repro.campaign import ScenarioSpec
from repro.chaos import ChaosOrchestrator, ReplicaSupervisor
from repro.chaos.scenarios import engine_of
from repro.core import build_sandia_site
from repro.fleet import AutoscalerConfig, Fleet, PoissonSchedule, SloSpec
from repro.vllm import faults

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"


def _fleet(seed=23):
    site = build_sandia_site(seed=seed, hops_nodes=6, eldorado_nodes=2,
                             goodall_nodes=3, cee_nodes=1)
    fleet = Fleet(site, ScenarioSpec(
        model=QUANT, tensor_parallel_size=2, platforms=("hops",),
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3)))
    return site, fleet


def _run_trigger_scenario(site, fleet, arm):
    """Start, arm the trigger at t+300, run traffic, track recovery."""
    kernel = site.kernel
    supervisor = ReplicaSupervisor(fleet)   # the spec's 30 s sweeps
    state = {}

    def scenario(env):
        yield from fleet.start(initial_replicas=2)
        stop = env.event()
        env.spawn(supervisor.run(stop), name="sup")

        def arm_later(env):
            yield env.timeout(300.0)
            victim = sorted(fleet.replicas, key=lambda r: r.name)[0]
            state["victim"] = victim
            state["engine"] = engine_of(fleet, victim)
            arm(state["engine"])

        env.spawn(arm_later(env), name="arm")
        report = yield from fleet.run_scenario(
            PoissonSchedule(0.2), horizon=2400.0, label="trigger-e2e")
        stop.succeed()
        return report

    report = kernel.run(until=kernel.spawn(scenario(kernel)))
    return supervisor, state, report


def test_crash_at_time_through_fleet_recovery():
    site, fleet = _fleet(seed=23)
    supervisor, state, report = _run_trigger_scenario(
        site, fleet,
        lambda engine: faults.attach(
            engine, faults.CrashAtTime(site.kernel.now,
                                       reason="injected failure")))
    engine = state["engine"]
    # The trigger fired, recorded its reason, and killed the engine...
    assert engine.crashed is not None
    assert "injected failure" in str(engine.crashed)
    assert engine.fault_plan.fired
    # ...the container died with it...
    container = state["victim"].deployment.container
    assert not container.running and container.exit_code == 1
    # ...and the fleet healed: dead replica replaced, pool whole again.
    assert [e.action for e in supervisor.events].count("replaced") == 1
    assert len(fleet.replicas) == 2
    assert all(fleet.replica_status(r)[0] == "ok"
               for r in fleet.replicas)
    assert fleet.router_app.healthy_backends == 2
    # No request was lost: failover retried the in-flight ones.
    assert report.slo.errors == 0
    assert report.slo.completed == report.arrivals


def test_crash_on_concurrency_through_fleet_recovery():
    site, fleet = _fleet(seed=29)
    supervisor, state, report = _run_trigger_scenario(
        site, fleet,
        lambda engine: faults.attach(
            engine, faults.CrashOnConcurrency(1)))
    engine = state["engine"]
    assert engine.crashed is not None
    assert "NCCL collective timeout" in str(engine.crashed)
    assert len(fleet.replicas) == 2
    assert all(fleet.replica_status(r)[0] == "ok"
               for r in fleet.replicas)
    assert report.slo.errors == 0


def test_crash_at_time_scored_by_orchestrator():
    """The same trigger measured via the orchestrator's probe timeline."""
    from repro.chaos.scenarios import CATALOG
    site, fleet = _fleet(seed=31)
    orchestrator = ChaosOrchestrator(fleet)
    scenario = next(s for s in CATALOG if s.name == "engine_oom")
    kernel = site.kernel

    def run(env):
        yield from fleet.start(initial_replicas=2)
        result = yield from orchestrator.run_case(
            scenario, PoissonSchedule(0.2), horizon=2400.0,
            inject_at=600.0, fault_duration=300.0)
        return result

    report, res = kernel.run(until=kernel.spawn(run(kernel)))
    assert res.recovery_ok
    assert res.detected_at is not None
    assert res.first_response_s is not None
    assert res.mttr_s is not None and res.mttr_s > 0
    assert report.resilience["scenario"] == "engine_oom"
    assert report.to_json()["resilience"]["recovery_ok"] is True
