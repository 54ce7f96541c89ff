#!/usr/bin/env python3
"""An elastic day: 24 simulated hours of open-loop traffic on one fleet.

The paper benchmarks each platform with closed-loop concurrency sweeps
against a static deployment.  This scenario is what the same converged
site looks like in *production*: a diurnal arrival curve (quiet nights,
busy afternoons) from three tenants, a 14:00 flash crowd that multiplies
the arrival rate far past one replica's capacity, and a fleet that
defends its SLOs by autoscaling vLLM replicas across the Hops (Slurm)
and Goodall (OpenShift) platforms — 1 replica overnight, >= 3 at the
flash peak, and back down to 1 by evening.

Everything is driven by named RNG streams off one seed, so the whole day
replays identically on every run.

Run:  python examples/fleet_elastic_day.py
"""

from __future__ import annotations

from repro.campaign import (ScenarioSpec, ScheduleSpec, SiteSpec,
                            TenantSpec, play)
from repro.fleet import AutoscalerConfig, SloSpec
from repro.units import fmt_duration

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"
SEED = 2025
DAY = 24 * 3600.0


def main() -> None:
    spec = ScenarioSpec(
        name="elastic-day", seed=SEED, model=QUANT,
        tensor_parallel_size=2,
        platforms=("hops", "goodall"),      # CUDA HPC + OpenShift
        policy="least-outstanding",
        horizon=DAY,
        site=SiteSpec(hops_nodes=8, eldorado_nodes=4, goodall_nodes=4,
                      cee_nodes=2),
        # Quiet nights around 0.03 req/s, afternoons around 0.2 req/s,
        # and a 30-minute 14:00 flash crowd at ~80x the instantaneous
        # rate — far past one replica's decode ceiling, so the
        # autoscaler must act.
        schedule=ScheduleSpec(
            kind="diurnal", base_rps=0.03, peak_rps=0.2, peak_hour=14.0,
            flash_mult=80.0, flash_start=14.0 * 3600.0,
            flash_duration=30 * 60.0, flash_ramp=240.0),
        tenants=(
            TenantSpec("chat-ui", weight=6.0),
            TenantSpec("code-assist", weight=3.0, max_total_tokens=2048),
            TenantSpec("batch-summarize", weight=1.0,
                       max_total_tokens=8192),
        ),
        slo=SloSpec(name="interactive", ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(
            min_replicas=1, max_replicas=4, target_outstanding=8.0,
            up_cooldown=120.0, down_cooldown=600.0, low_streak=5),
    )
    report, fleet, _digest = play(spec)

    print(report.summary())
    print(f"\nreplica placements: {fleet.placements}")
    print(f"simulated time: {fmt_duration(fleet.kernel.now)}")

    # The elastic story this example exists to demonstrate:
    assert report.peak_replicas >= 3, "flash crowd must trigger scale-out"
    assert report.final_replicas == 1, "fleet must scale back down"
    actions = [e.action for e in report.scale_events]
    assert "up" in actions and "down" in actions
    platforms_used = {platform for _, platform in fleet.placements}
    assert "goodall" in platforms_used, "scale-out should reach OpenShift"
    assert report.slo.attainment > 0.80, "most of the day meets the SLO"
    print("\nelastic day OK: scaled 1 -> "
          f"{report.peak_replicas} -> {report.final_replicas}, "
          f"SLO attainment {report.slo.attainment:.1%}")


if __name__ == "__main__":
    main()
