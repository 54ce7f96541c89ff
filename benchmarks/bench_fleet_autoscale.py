"""Fleet elasticity benchmark: flash crowd vs the autoscaler.

A compact open-loop scenario (Poisson baseline + a flash crowd well past
one replica's decode ceiling) on a converged hops+goodall fleet.  Records
the scorecard the scenario produces — peak replicas, SLO attainment,
goodput — and asserts the elastic invariants: the fleet scales out under
the burst, scales back afterwards, and loses no requests.
"""

from __future__ import annotations

from repro.campaign import ScenarioSpec, ScheduleSpec, SiteSpec, play
from repro.fleet import AutoscalerConfig, SloSpec

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"

SPEC = ScenarioSpec(
    name="bench-autoscale", seed=77, model=QUANT, tensor_parallel_size=2,
    platforms=("hops", "goodall"), horizon=2 * 3600.0,
    site=SiteSpec(hops_nodes=6, eldorado_nodes=2, goodall_nodes=3,
                  cee_nodes=1),
    schedule=ScheduleSpec(kind="poisson", rate_rps=0.1,
                          flash_mult=150.0, flash_start=900.0,
                          flash_duration=1200.0, flash_ramp=180.0),
    slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
    autoscaler=AutoscalerConfig(
        min_replicas=1, max_replicas=4, target_outstanding=8.0,
        up_cooldown=120.0, down_cooldown=600.0))


def test_flash_crowd_autoscale(benchmark):
    report, fleet, _digest = benchmark.pedantic(play, args=(SPEC,),
                                                rounds=1, iterations=1)
    slo = report.slo
    benchmark.extra_info.update({
        "arrivals": report.arrivals,
        "peak_replicas": report.peak_replicas,
        "final_replicas": report.final_replicas,
        "attainment": round(slo.attainment, 4),
        "goodput_rps": round(slo.goodput_rps, 3),
        "ttft_p95_s": round(slo.ttft_percentiles["p95"], 3),
        "e2e_p95_s": round(slo.e2e_percentiles["p95"], 3),
        "scale_events": [e.row() for e in report.scale_events],
        "placements": fleet.placements,
    })
    assert report.peak_replicas >= 3
    assert report.final_replicas == 1
    assert slo.errors == 0
    assert slo.completed == report.arrivals
    assert slo.attainment > 0.80
