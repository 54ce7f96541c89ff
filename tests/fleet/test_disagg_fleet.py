"""End-to-end disaggregated serving: a fleet of prefill + decode pools
behind the two-leg router, measured by the SLO tracker's per-path
report and pinned deterministic by the golden trace digest."""

from __future__ import annotations

import pytest

from repro.campaign import ScenarioSpec, ScheduleSpec, SiteSpec, run_cell
from repro.core import build_sandia_site
from repro.fleet import (AutoscalerConfig, DisaggSpec, Fleet, FleetConfig,
                         PoissonSchedule, SloSpec)

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"


def _run_disagg_day(seed=11):
    site = build_sandia_site(seed=seed, hops_nodes=8, eldorado_nodes=2,
                            goodall_nodes=3, cee_nodes=1)
    config = FleetConfig(
        model=QUANT, tensor_parallel_size=2,
        platforms=("hops",),
        policy="round-robin",
        slo=SloSpec(ttft_target=15.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=3),
        disagg=DisaggSpec(enabled=True, prefill_replicas=1))
    fleet = Fleet(site, config)
    schedule = PoissonSchedule(0.5)

    def scenario(env):
        yield from fleet.start(initial_replicas=2)
        report = yield from fleet.run_scenario(
            schedule, horizon=900.0, label="disagg-day")
        return report

    report = site.kernel.run(until=site.kernel.spawn(scenario(site.kernel)))
    return site, fleet, report


@pytest.fixture(scope="module")
def disagg_run():
    return _run_disagg_day()


def test_fleet_deploys_role_pools(disagg_run):
    _, fleet, _ = disagg_run
    roles = sorted(r.role for r in fleet.replicas)
    assert roles.count("prefill") == 1
    assert roles.count("decode") >= 1      # elastic pool; scaler may resize
    assert "unified" not in roles


def test_every_request_takes_the_disagg_path(disagg_run):
    _, _, report = disagg_run
    slo = report.slo
    assert slo.errors == 0 and slo.completed > 100
    assert slo.paths is not None
    assert set(slo.paths["ttft"]) == {"disagg"}
    assert slo.paths["ttft"]["disagg"]["n"] == slo.good + (
        slo.completed - slo.good)


def test_kv_handoffs_are_costed_through_the_fabric(disagg_run):
    site, _, report = disagg_run
    paths = report.slo.paths
    assert paths["kv_transfers"] == report.slo.completed
    assert paths["kv_transfer_s"] > 0
    # Each handoff leaves a kv_transfer span joined to its request trace.
    spans = [s for s in site.kernel.obs.spans.finished
             if s.name == "kv_transfer"]
    assert len(spans) == paths["kv_transfers"]
    assert all(s.attrs["bytes"] > 0 for s in spans)


def test_disagg_report_renders_the_paths_block(disagg_run):
    _, _, report = disagg_run
    text = report.slo.summary()
    assert "disagg" in text and "kv transfer" in text
    assert report.slo.to_json()["paths"]["kv_transfers"] > 0


def test_router_http_route_serves_the_two_legs(disagg_run):
    """The router's JSON route adapts onto the same typed dispatch the
    fleet calls in process: one POST comes back as a merged disagg
    completion, without the internal handoff descriptor."""
    from repro.net.http import HttpClient

    site, fleet, _ = disagg_run
    client = HttpClient(site.fabric, fleet._client.host)
    kernel = site.kernel

    def post(env):
        response = yield from client.post(
            fleet.router_host, fleet.config.router_port,
            "/v1/chat/completions",
            json={"model": QUANT, "repro_prompt_tokens": 300,
                  "max_tokens": 12})
        return response

    response = kernel.run(until=kernel.spawn(post(kernel)))
    assert response.ok
    assert response.json["usage"]["completion_tokens"] == 12
    assert response.json["repro_stats"]["path"] == "disagg"
    assert response.json["repro_stats"]["kv_transfer_s"] > 0
    assert "repro_handoff" not in response.json


DISAGG_SPEC = ScenarioSpec(
    name="disagg-golden", seed=2026, horizon=600.0,
    site=SiteSpec(hops_nodes=8, eldorado_nodes=2, goodall_nodes=3,
                  cee_nodes=1),
    platforms=("hops",), policy="round-robin",
    schedule=ScheduleSpec(kind="poisson", rate_rps=0.5),
    disagg=DisaggSpec(enabled=True))


def test_disagg_cell_trace_digest_is_byte_stable():
    """Two fresh simulations of a disaggregated cell leave identical
    event traces — the same determinism bar unified serving meets."""
    row_a, row_b = run_cell(DISAGG_SPEC), run_cell(DISAGG_SPEC)
    assert row_a["trace_digest"] == row_b["trace_digest"]
    assert row_a == row_b
    assert row_a["disagg"] is True
    assert row_a["paths"]["ttft"]["disagg"]["n"] > 0


def test_disagg_flag_changes_the_trajectory():
    import dataclasses
    unified = dataclasses.replace(DISAGG_SPEC, disagg=False)
    row = run_cell(unified)
    assert row["disagg"] is False
    assert row["trace_digest"] != run_cell(DISAGG_SPEC)["trace_digest"]
