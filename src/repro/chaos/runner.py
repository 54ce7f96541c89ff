"""Scenario-matrix runner: the full catalog, both platform kinds, one JSON.

Each case gets a *fresh* converged site and fleet (faults never bleed
between cases), runs the same open-loop traffic, injects its fault at
the same scheduled time, and contributes one row to the machine-readable
``chaos_scorecard.json``.  Everything derives from the seed and the
simulation clock, so the same seed produces a byte-identical scorecard.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from ..experiments.common import canonical_json_text
from ..fleet import AutoscalerConfig, SloSpec
from .orchestrator import ResilienceReport
from .scenarios import ChaosScenario, catalog

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"

#: Which site platform hosts the fleet for each platform kind.
PLATFORM_FLEETS = {"hpc": "hops", "k8s": "goodall"}


@dataclass(frozen=True)
class ChaosRunConfig:
    """Matrix-wide knobs; ``quick`` for CI, ``long`` for the nightly."""

    seed: int = 42
    mode: str = "quick"
    rate_rps: float = 0.15
    horizon: float = 3600.0
    inject_at: float = 900.0
    fault_duration: float = 600.0
    probe_interval: float = 15.0
    initial_replicas: int = 2
    supervisor_interval: float = 30.0

    @classmethod
    def quick(cls, seed: int = 42) -> ChaosRunConfig:
        return cls(seed=seed)

    @classmethod
    def long(cls, seed: int = 42) -> ChaosRunConfig:
        return cls(seed=seed, mode="long", rate_rps=0.25,
                   horizon=4 * 3600.0, inject_at=1800.0,
                   fault_duration=1200.0)


def case_spec(config: ChaosRunConfig, fleet_platform: str):
    """The matrix cell as a declarative :class:`ScenarioSpec`.

    Chaos cases construct their site and fleet through the campaign
    spec, so the matrix runner and the campaign runner provably build
    identical worlds for identical knobs.
    """
    # Deferred import: repro.campaign.spec <-> repro.chaos is a cycle at
    # module scope (the spec validates scenario names against the
    # catalog).
    from ..campaign.spec import ScenarioSpec, ScheduleSpec, SiteSpec
    return ScenarioSpec(
        name=f"chaos:{fleet_platform}", seed=config.seed, model=QUANT,
        tensor_parallel_size=2, platforms=(fleet_platform,),
        router_platform="hops", policy="least-outstanding",
        initial_replicas=config.initial_replicas, horizon=config.horizon,
        site=SiteSpec(hops_nodes=6, eldorado_nodes=4, goodall_nodes=5,
                      cee_nodes=1),
        schedule=ScheduleSpec(kind="poisson", rate_rps=config.rate_rps),
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(
            min_replicas=config.initial_replicas, max_replicas=3,
            target_outstanding=8.0),
        probe_interval=config.probe_interval,
        supervisor_interval=config.supervisor_interval,
        # Tighter than the fleet default: the alert evaluator runs at
        # the scrape cadence, and telemetry-driven detection delay is
        # only meaningful when resolved finer than the fault duration.
        scrape_interval=60.0)


def run_case(scenario: ChaosScenario | str, platform_kind: str,
             config: ChaosRunConfig | None = None,
             fleet_platform: str | None = None):
    """One (scenario, platform) cell: returns ``(row, report, res)``.

    The cell is :func:`case_spec` with the scenario as its one chaos
    event, played by :func:`repro.campaign.play`; ``res`` is the typed
    :class:`ResilienceReport` the played report carries.
    """
    # Deferred for the same cycle as in case_spec.
    from ..campaign import ChaosEventSpec, play
    config = config or ChaosRunConfig()
    if isinstance(scenario, str):
        scenario = catalog(names=[scenario])[0]
    if platform_kind not in PLATFORM_FLEETS:
        raise ValueError(f"platform kind must be one of "
                         f"{sorted(PLATFORM_FLEETS)}: {platform_kind!r}")
    fleet_platform = fleet_platform or PLATFORM_FLEETS[platform_kind]
    spec = replace(
        case_spec(config, fleet_platform),
        chaos=(ChaosEventSpec(scenario.name, config.inject_at,
                              config.fault_duration),))
    report, _fleet, _digest = play(spec)
    (res,) = report.faults
    row = _case_row(platform_kind, fleet_platform, scenario, report)
    return row, report, res


def _case_row(platform_kind: str, fleet_platform: str,
              scenario: ChaosScenario, report) -> dict:
    return {
        "platform": platform_kind,
        "fleet_platform": fleet_platform,
        "scenario": scenario.name,
        "layer": scenario.layer,
        "resilience": report.resilience,
        "fleet": {
            "arrivals": report.arrivals,
            "errors": report.slo.errors,
            "attainment": round(report.slo.attainment, 4),
            "peak_replicas": report.peak_replicas,
            "final_replicas": report.final_replicas,
            "scale_events": len(report.scale_events),
        },
    }


def run_matrix(platform_kinds=("hpc", "k8s"), seed: int = 42,
               mode: str = "quick", scenarios: list[str] | None = None,
               on_case: Callable[[dict, ResilienceReport], None]
               | None = None) -> dict:
    """The full applicable catalog on every requested platform kind."""
    config = (ChaosRunConfig.long(seed) if mode == "long"
              else ChaosRunConfig.quick(seed))
    cases = []
    for kind in platform_kinds:
        for scenario in catalog(kind, scenarios):
            row, _report, res = run_case(scenario, kind, config)
            cases.append(row)
            if on_case is not None:
                on_case(row, res)
    cases.sort(key=lambda c: (c["platform"], c["scenario"]))
    mttrs = [c["resilience"]["mttr_s"] for c in cases
             if c["resilience"]["mttr_s"] is not None]
    recovered = sum(c["resilience"]["recovery_ok"] for c in cases)
    alert_delays = [c["resilience"]["detection_delay_alert_s"]
                    for c in cases
                    if c["resilience"]["detection_delay_alert_s"]
                    is not None]
    return {
        "schema": "chaos_scorecard/v1",
        "seed": seed,
        "mode": config.mode,
        "platforms": sorted(platform_kinds),
        "cases": cases,
        "summary": {
            "cases": len(cases),
            "recovered": int(recovered),
            "mttr_mean_s": (round(sum(mttrs) / len(mttrs), 1)
                            if mttrs else None),
            "mttr_max_s": round(max(mttrs), 1) if mttrs else None,
            "requests_lost_total": sum(
                c["resilience"]["requests_lost"] for c in cases),
            "requests_retried_total": sum(
                c["resilience"]["requests_retried"] for c in cases),
            # Telemetry-driven detection, next to the probe ground
            # truth above: how many faults the rule set noticed at all,
            # how fast, and how often it paged without cause.
            "alert_detected": len(alert_delays),
            "alert_delay_mean_s": (round(sum(alert_delays)
                                         / len(alert_delays), 1)
                                   if alert_delays else None),
            "false_alerts_total": sum(
                c["resilience"]["false_alerts"] for c in cases),
        },
    }


def scorecard_text(scorecard: dict) -> str:
    """Canonical serialization: byte-identical for identical runs."""
    return canonical_json_text(scorecard)
