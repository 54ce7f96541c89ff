"""End-to-end fleet test: flash crowd -> scale out -> scale back."""

from __future__ import annotations

import pytest

from repro.campaign import ScenarioSpec, ScheduleSpec, SiteSpec, play
from repro.fleet import Autoscaler, AutoscalerConfig, SloSpec

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"


def test_autoscaler_config_validation():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(min_replicas=3, max_replicas=2)
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(target_outstanding=0.0)
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(target_outstanding=4.0, scale_down_threshold=4.0)
    # Degenerate knobs ScenarioSpec can construct must fail up front
    # rather than ZeroDivisionError / silently stall the control loop.
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(max_step_up=0)
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(up_cooldown=-1.0)
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(down_cooldown=-0.1)
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(low_streak=0)
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(drain_timeout=-5.0)
    with pytest.raises(ConfigurationError):
        AutoscalerConfig(interval=0.0)
    assert AutoscalerConfig(up_cooldown=0.0, down_cooldown=0.0) is not None


def test_desired_replicas_clamped():
    cfg = AutoscalerConfig(min_replicas=1, max_replicas=4,
                           target_outstanding=8.0)
    scaler = Autoscaler.__new__(Autoscaler)  # signal math needs no fleet
    scaler.config = cfg
    assert scaler.desired_replicas(0) == 1
    assert scaler.desired_replicas(8) == 1
    assert scaler.desired_replicas(9) == 2
    assert scaler.desired_replicas(17) == 3
    assert scaler.desired_replicas(1000) == 4


@pytest.fixture(scope="module")
def elastic_run():
    """One compact flash-crowd day shared by the assertions below."""
    return play(ScenarioSpec(
        name="e2e", seed=99, model=QUANT, tensor_parallel_size=2,
        platforms=("hops", "goodall"),
        policy="least-outstanding",
        horizon=5400.0,
        site=SiteSpec(hops_nodes=6, eldorado_nodes=2, goodall_nodes=3,
                      cee_nodes=1),
        # Baseline 0.1 req/s; the burst (~15 req/s) exceeds a single
        # replica's decode ceiling, so backlog builds until the fleet
        # grows.
        schedule=ScheduleSpec(kind="poisson", rate_rps=0.1,
                              flash_mult=150.0, flash_start=600.0,
                              flash_duration=900.0, flash_ramp=120.0),
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=3, target_outstanding=8.0,
            up_cooldown=120.0, down_cooldown=600.0, low_streak=4)))


def test_flash_crowd_scales_out_and_back(elastic_run):
    report, fleet, _digest = elastic_run
    assert report.peak_replicas >= 3
    assert report.final_replicas == 1
    actions = [e.action for e in report.scale_events]
    assert actions[0] == "up"
    assert "down" in actions
    assert actions.index("up") < actions.index("down")


def test_replicas_span_hpc_and_k8s(elastic_run):
    report, fleet, _digest = elastic_run
    platforms = {platform for _, platform in fleet.placements}
    assert "hops" in platforms
    assert "goodall" in platforms


def test_no_requests_lost_and_slo_reported(elastic_run):
    report, fleet, _digest = elastic_run
    slo = report.slo
    assert report.arrivals > 1000
    assert slo.completed + slo.errors == report.arrivals == slo.submitted
    assert slo.errors == 0
    assert 0.5 < slo.attainment <= 1.0
    assert slo.ttft_percentiles["p99"] > slo.ttft_percentiles["p50"] >= 0
    # During the burst the SLO was genuinely under pressure: some window
    # snapshot saw latencies past the targets.
    assert any(not row["slo_met"] for row in report.snapshots)
    assert any(row["slo_met"] for row in report.snapshots)


def test_router_backends_track_replicas(elastic_run):
    report, fleet, _digest = elastic_run
    router = fleet.router_app
    assert router.policy == "least-outstanding"
    assert len(router.backends) == len(fleet.replicas) == 1
    assert router.backends[0].served > 0


def test_scenario_is_deterministic():
    """Same seed -> identical arrival count and scale-event schedule."""
    def run_once():
        report, fleet, _digest = play(ScenarioSpec(
            name="det", seed=123, model=QUANT, tensor_parallel_size=2,
            platforms=("hops",), horizon=1800.0,
            site=SiteSpec(hops_nodes=4, eldorado_nodes=2, goodall_nodes=2,
                          cee_nodes=1),
            schedule=ScheduleSpec(kind="poisson", rate_rps=0.1,
                                  flash_mult=120.0, flash_start=300.0,
                                  flash_duration=600.0, flash_ramp=60.0),
            autoscaler=AutoscalerConfig(
                min_replicas=1, max_replicas=2, target_outstanding=8.0)))
        # play()'s teardown stops the router and every tracked replica.
        fleet.kernel.run(until=fleet.kernel.now + 60.0)
        assert not fleet.router_container.running
        for replica in fleet.replicas:
            container = replica.deployment.container
            assert container is None or not container.running
        return (report.arrivals,
                [(e.time, e.action, e.replicas_after)
                 for e in report.scale_events])

    assert run_once() == run_once()
