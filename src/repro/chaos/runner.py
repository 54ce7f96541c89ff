"""Scenario-matrix runner: the full catalog, both platform kinds, one JSON.

Each case gets a *fresh* converged site and fleet (faults never bleed
between cases), runs the same open-loop traffic, injects its fault at
the same scheduled time, and contributes one row to the machine-readable
``chaos_scorecard.json``.  Everything derives from the seed and the
simulation clock, so the same seed produces a byte-identical scorecard.
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import ConfigurationError
from ..experiments.common import canonical_json_text
from ..fleet import AutoscalerConfig, SloSpec
from .orchestrator import ResilienceReport
from .scenarios import ChaosScenario, catalog

#: Which site platform hosts the fleet for each platform kind.
PLATFORM_FLEETS = {"hpc": "hops", "k8s": "goodall"}


#: The matrix's two timings: ``quick`` for CI, ``long`` for the
#: nightly.  Each row is ``(rate_rps, horizon, inject_at,
#: fault_duration)``.
MODES = {
    "quick": (0.15, 3600.0, 900.0, 600.0),
    "long": (0.25, 4 * 3600.0, 1800.0, 1200.0),
}


def case_spec(scenario: str, fleet_platform: str = "hops", seed: int = 42,
              mode: str = "quick"):
    """The matrix cell as a declarative :class:`ScenarioSpec`.

    The cell's one chaos event injects the catalog ``scenario`` on a
    fleet on ``fleet_platform``, timed by ``MODES[mode]``.  Chaos cases
    construct their site and fleet through the campaign spec, so the
    matrix runner and the campaign runner provably build identical
    worlds for identical knobs.
    """
    # Deferred import: repro.campaign.spec <-> repro.chaos is a cycle at
    # module scope (the spec validates scenario names against the
    # catalog).
    from ..campaign.spec import (ChaosEventSpec, ScenarioSpec, ScheduleSpec,
                                 SiteSpec)
    if mode not in MODES:
        raise ConfigurationError(
            f"chaos mode must be one of {sorted(MODES)}: {mode!r}")
    rate_rps, horizon, inject_at, fault_duration = MODES[mode]
    return ScenarioSpec(
        name=f"chaos:{fleet_platform}", seed=seed,
        platforms=(fleet_platform,), initial_replicas=2, horizon=horizon,
        site=SiteSpec(hops_nodes=6, eldorado_nodes=4, goodall_nodes=5,
                      cee_nodes=1),
        schedule=ScheduleSpec(kind="poisson", rate_rps=rate_rps),
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3,
                                    target_outstanding=8.0),
        chaos=(ChaosEventSpec(scenario, inject_at, fault_duration),),
        # Tighter than the fleet default: the alert evaluator runs at
        # the scrape cadence, and telemetry-driven detection delay is
        # only meaningful when resolved finer than the fault duration.
        scrape_interval=60.0)


def run_case(spec, platform_kind: str):
    """Play one matrix cell (a :func:`case_spec`, or any spec with one
    chaos event): returns ``(row, report, res)``.

    ``res`` is the typed :class:`ResilienceReport` the report played by
    :func:`repro.campaign.play` carries; ``platform_kind`` labels the
    row.
    """
    # Deferred for the same cycle as in case_spec.
    from ..campaign import play
    if platform_kind not in PLATFORM_FLEETS:
        raise ValueError(f"platform kind must be one of "
                         f"{sorted(PLATFORM_FLEETS)}: {platform_kind!r}")
    report, _fleet, _digest = play(spec)
    (res,) = report.faults
    (scenario,) = catalog(names=[res.scenario])
    row = _case_row(platform_kind, spec.platforms[0], scenario, report)
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
    cases = []
    for kind in platform_kinds:
        for scenario in catalog(kind, scenarios):
            row, _report, res = run_case(case_spec(
                scenario.name, PLATFORM_FLEETS[kind], seed, mode), kind)
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
        "mode": mode,
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
