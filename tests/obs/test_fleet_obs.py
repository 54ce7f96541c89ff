"""End-to-end observability: one fleet day, every surface checked.

One short scenario feeds every assertion: the ``FleetReport.obs``
block, the span trees (request → route → attempt plus the engine's
queue/prefill/decode phases), the shared registry served from the vLLM
``/metrics`` route and the router admin routes — all read through the
one :func:`parse_exposition` parser — and digest determinism across two
identical runs.
"""

from __future__ import annotations

import pytest

from repro.campaign import ScenarioSpec
from repro.core import build_sandia_site
from repro.fleet import (AutoscalerConfig, Fleet,
                         PoissonSchedule, SloSpec)
from repro.net.http import HttpClient
from repro.obs import parse_exposition

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"


def _run_day(seed=7, horizon=900.0):
    site = build_sandia_site(seed=seed, hops_nodes=4, eldorado_nodes=2,
                             goodall_nodes=2, cee_nodes=1)
    spec = ScenarioSpec(
        model=QUANT, tensor_parallel_size=2, platforms=("hops",),
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=2))
    fleet = Fleet(site, spec)

    def scenario(env):
        yield from fleet.start(initial_replicas=2)
        report = yield from fleet.run_scenario(
            PoissonSchedule(0.2), horizon=horizon, label="obs-day")
        return report

    report = site.kernel.run(until=site.kernel.spawn(scenario(site.kernel)))
    return site, fleet, report


@pytest.fixture(scope="module")
def obs_run():
    return _run_day()


def test_report_carries_the_obs_block(obs_run):
    site, fleet, report = obs_run
    obs = report.obs
    assert obs is not None
    assert obs["finished_spans"] > 0
    assert obs["metric_series"] > 0
    assert len(obs["digests"]["metrics"]) == 64
    assert len(obs["digests"]["spans"]) == 64
    assert obs["scrape"]["interval"] == 300.0
    assert obs["scrape"]["scrapes"] >= 3          # 900 s day + final pin
    assert len(obs["scrape"]["digest"]) == 64
    assert report.to_json()["obs"] == obs


def test_obs_block_carries_alerts_and_attribution(obs_run):
    site, fleet, report = obs_run
    alerts = report.obs["alerts"]
    # The stock rule set derived from the SloSpec, evaluated each scrape.
    names = {r["name"] for r in alerts["rules"]}
    assert {"error-budget-fast-burn", "slo-ttft-breach",
            "backend-unhealthy", "traffic-absent",
            "fleet-capacity-low"} <= names
    assert alerts["evaluations"] >= 3
    assert alerts["firing"] == [] and alerts["fired_total"] == 0
    assert len(alerts["digest"]) == 64
    assert fleet.alerts is not None
    assert alerts["digest"] == fleet.alerts.digest()
    attribution = report.obs["attribution"]
    assert attribution["requests"] == report.slo.completed
    assert attribution["skipped"] == 0
    assert attribution["cohorts"]["e2e"]["p99"]["top_phase"] != ""
    assert len(attribution["digest"]) == 64


def test_slo_window_gauges_land_in_the_scrape(obs_run):
    site, fleet, report = obs_run
    state = fleet.alerts.scraper.fold()
    assert 0.0 <= state["fleet_slo_attainment"] <= 1.0
    assert state["fleet_slo_window_samples"] >= 0
    assert "fleet_slo_ttft_p95_seconds" in state
    assert state["router_backends_unhealthy"] == 0.0


def test_request_span_trees_have_all_phases(obs_run):
    site, fleet, report = obs_run
    spans = site.kernel.obs.spans
    names = {s.name for s in spans.finished}
    assert {"request", "route", "queue", "prefill", "decode"} <= names
    roots = spans.of_name("request")
    assert len(roots) == report.arrivals
    trace = spans.traces()[roots[0].trace_id]
    by_name = {s.name: s for s in trace}
    # The router's route span is a child of the fleet's root span and
    # names the backend it proxied to ("attempt" children appear only
    # on failover — this healthy fleet has none).
    assert by_name["route"].parent_id == roots[0].span_id
    assert by_name["route"].attrs["outcome"] == "ok"
    backends = {f"{r.backend_host}:{r.backend_port}" for r in fleet.replicas}
    assert by_name["route"].attrs["backend"] in backends
    assert "attempt" not in names
    # Engine phases tile the serving interval in order.
    assert by_name["queue"].end <= by_name["prefill"].start
    assert by_name["prefill"].end == by_name["decode"].start
    assert by_name["decode"].end <= roots[0].end
    assert by_name["prefill"].attrs["prompt_tokens"] > 0
    assert by_name["decode"].attrs["output_tokens"] > 0


def test_registry_counts_match_the_slo_report(obs_run):
    site, fleet, report = obs_run
    parsed = parse_exposition(site.kernel.obs.registry.exposition())
    ok = parsed["fleet_requests_total"].get((("outcome", "ok"),), 0)
    err = parsed["fleet_requests_total"].get((("outcome", "error"),), 0)
    assert ok + err == report.arrivals
    assert ok == report.slo.completed
    completed = sum(parsed["engine_requests_completed_total"].values())
    assert completed == ok
    lat_counts = parsed["engine_request_latency_seconds_count"]
    assert sum(lat_counts.values()) == completed


def _get(site, host, port, path):
    client = HttpClient(site.fabric, "hops-svc")

    def proc(env):
        resp = yield from client.get(host, port, path)
        return resp

    return site.kernel.run(until=site.kernel.spawn(proc(site.kernel)))


def test_vllm_metrics_route_serves_one_engine_exposition(obs_run):
    site, fleet, report = obs_run
    replica = fleet.replicas[0]
    # No Accept header: the route always serves this engine's slice of
    # the registry as Prometheus text.
    resp = _get(site, replica.backend_host, replica.backend_port,
                "/metrics")
    assert resp.ok and resp.headers["content-type"] == "text/plain"
    parsed = parse_exposition(resp.json)
    # The slice holds exactly one engine's series: no other replica and
    # no router or fleet family leaks in.
    assert all(name.startswith("engine_") for name in parsed)
    engines = {dict(labels)["engine"]
               for series in parsed.values() for labels in series}
    assert len(engines) == 1
    (label,) = parsed["engine_iterations_total"]
    assert parsed["engine_iterations_total"][label] > 0
    full = parse_exposition(site.kernel.obs.registry.exposition())
    assert len(full["engine_iterations_total"]) == len(fleet.replicas)


def test_router_admin_routes_serve_the_registry(obs_run):
    site, fleet, report = obs_run
    host, port = fleet.router_host, fleet.router_config.port
    # /router/metrics: the full fleet-wide exposition.
    full = _get(site, host, port, "/router/metrics")
    assert full.ok and full.headers["content-type"] == "text/plain"
    parsed = parse_exposition(full.json)
    assert "fleet_requests_total" in parsed
    assert "router_outstanding" in parsed
    assert "engine_kv_cache_usage" in parsed
    served = {labels[0][1]: v
              for labels, v in parsed["router_backend_served_total"].items()}
    assert sum(served.values()) == report.arrivals
    # /router/stats: the router_ slice of the same exposition.
    stats = _get(site, host, port, "/router/stats")
    assert stats.ok and stats.headers["content-type"] == "text/plain"
    sliced = parse_exposition(stats.json)
    assert sliced and all(name.startswith("router_") for name in sliced)
    assert sliced == {name: series for name, series in parsed.items()
                      if name.startswith("router_")}
    assert sliced["router_backends_healthy"][()] == len(fleet.replicas)


def test_obs_digests_reproduce_across_runs():
    _, _, a = _run_day(seed=11, horizon=420.0)
    _, _, b = _run_day(seed=11, horizon=420.0)
    assert a.obs["digests"] == b.obs["digests"]
    assert a.obs["scrape"]["digest"] == b.obs["scrape"]["digest"]
    assert a.obs["alerts"]["digest"] == b.obs["alerts"]["digest"]
    assert a.obs["attribution"]["digest"] == b.obs["attribution"]["digest"]


def test_disabled_observability_yields_no_obs_block():
    site = build_sandia_site(seed=3, hops_nodes=4, eldorado_nodes=2,
                             goodall_nodes=2, cee_nodes=1)
    site.kernel.obs.disable()
    spec = ScenarioSpec(
        model=QUANT, tensor_parallel_size=2, platforms=("hops",),
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=1),
        scrape_interval=0.0)
    fleet = Fleet(site, spec)

    def scenario(env):
        yield from fleet.start(initial_replicas=1)
        report = yield from fleet.run_scenario(
            PoissonSchedule(0.1), horizon=300.0, label="dark")
        return report

    report = site.kernel.run(until=site.kernel.spawn(scenario(site.kernel)))
    assert report.obs is None
    assert site.kernel.obs.spans.finished == []
    assert "obs" not in report.to_json()
