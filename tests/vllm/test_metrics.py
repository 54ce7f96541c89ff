"""Tests for engine metrics and the /metrics endpoint."""

from __future__ import annotations

from repro.hardware import gpu_spec
from repro.models import llama4_scout
from repro.models.weights import validate_fit
from repro.net.http import HttpClient
from repro.obs import parse_exposition
from repro.vllm import (EngineArgs, LLMEngine, PerfModel, PerfProfile,
                        RequestSpec)


def _engine(kernel):
    card = llama4_scout()
    gpu = gpu_spec("H100-SXM-80G")
    args = EngineArgs(model=card.name, tensor_parallel_size=4,
                      max_model_len=65536)
    kv = validate_fit(card, gpu, 4, max_model_len=65536)
    engine = LLMEngine(kernel, card,
                       PerfModel(card, gpu, 4, profile=PerfProfile()),
                       args, kv)
    engine.start()
    return engine


def _gauges(engine) -> dict[str, float]:
    """This engine's series, by name, as its ``/metrics`` route serves
    them."""
    text = engine.kernel.obs.registry.exposition(
        where={"engine": engine.name})
    return {name: value for name, series in parse_exposition(text).items()
            for labels, value in series.items()
            if dict(labels).get("quantile", "0.5") == "0.5"}


def test_metrics_reflect_engine_state(kernel):
    engine = _engine(kernel)
    m0 = _gauges(engine)
    assert engine.total_requests == 0
    assert m0["engine_requests_running"] + m0["engine_requests_waiting"] == 0
    assert m0["engine_kv_cache_usage"] == 0.0
    reqs = [engine.submit(RequestSpec(128, 32)) for _ in range(4)]
    kernel.run(until=kernel.now + 0.05)
    mid = _gauges(engine)
    assert mid["engine_requests_running"] + mid["engine_requests_waiting"] == 4
    assert mid["engine_kv_cache_usage"] > 0
    kernel.run(until=kernel.all_of([r.done for r in reqs]))
    done = _gauges(engine)
    assert done["engine_requests_completed_total"] == 4
    assert done["engine_generation_tokens_total"] == 4 * 32
    assert done["engine_kv_cache_usage"] == 0.0
    assert done["engine_request_latency_seconds"] > 0     # the p50
    assert engine.crashed is None


def test_metrics_endpoint_over_http(rig):
    from tests.vllm.test_server import _opts, _run_vllm, _seed_model
    _seed_model(rig)
    container = _run_vllm(rig, _opts())
    rig.kernel.run(until=container.ready)
    client = HttpClient(rig.fabric, rig.nodes[1].hostname)

    def proc(env):
        resp = yield from client.get(rig.nodes[0].hostname, 8000, "/metrics")
        return resp

    resp = rig.kernel.run(until=rig.kernel.spawn(proc(rig.kernel)))
    assert resp.ok and resp.headers["content-type"] == "text/plain"
    parsed = parse_exposition(resp.json)
    (completed,) = parsed["engine_requests_completed_total"].values()
    assert completed == 0
    assert "engine_kv_cache_usage" in parsed
