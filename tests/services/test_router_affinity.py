"""Cache-affinity routing: session stickiness, fallback, telemetry.

The policy contract: a request carrying a ``repro_session`` key goes to
the backend that served that session before (it holds the KV prefix);
new sessions go least-outstanding; a quarantined or removed sticky
backend triggers a least-outstanding reassignment — and the per-backend
prefix-cache telemetry shows up as the ``router_cache_*`` and
``router_sessions_*`` series of ``/router/stats``.
"""

from __future__ import annotations

from repro.containers import RunOpts
from repro.net.http import HttpClient, HttpResponse, HttpService
from repro.obs import parse_exposition
from repro.services import router_image
from repro.services.router import LlmRouter, RouterConfig
from tests.containers.conftest import drive


def _post(kernel, fab, src, host, port, path, payload):
    client = HttpClient(fab, src)

    def proc(env):
        resp = yield from client.post(host, port, path, json=payload)
        return resp

    return kernel.run(until=kernel.spawn(proc(kernel)))


def _get(kernel, fab, src, host, port, path):
    client = HttpClient(fab, src)

    def proc(env):
        resp = yield from client.get(host, port, path)
        return resp

    return kernel.run(until=kernel.spawn(proc(kernel)))


def _vllm_like_backend(rig, host):
    """A fake vLLM endpoint with a toy per-session prefix cache: a
    repeat visit from a known session reports cached tokens."""
    state = {"healthy": True, "calls": 0, "sessions": set()}

    def handler(request):
        if request.path == "/health":
            code = 200 if state["healthy"] else 500
            return HttpResponse(code, json={"status": "ok"})
        state["calls"] += 1
        if not state["healthy"]:
            return HttpResponse(500, json={"error": "down"})
        session = (request.json or {}).get("repro_session")
        cached = 64 if session in state["sessions"] else 0
        if session:
            state["sessions"].add(session)
        return HttpResponse(200, json={
            "choices": [{"message": {"role": "assistant",
                                     "content": f"from {host}"}}],
            "usage": {"prompt_tokens": 10, "completion_tokens": 5,
                      "total_tokens": 15},
            "repro_stats": {"ttft": 0.01, "latency": 0.5,
                            "cached_tokens": cached}})

    HttpService(rig.fabric, host, 8000, handler)
    return state


def _start_router(rig, backends, policy="cache-affinity"):
    rig.registry.seed(router_image())
    container = drive(rig.kernel, rig.podman.run(
        rig.nodes[3], "berriai/litellm:main",
        RunOpts(network_host=True,
                env={"BACKENDS": ",".join(f"{b}:8000" for b in backends),
                     **RouterConfig(policy=policy).to_env()})))
    rig.kernel.run(until=container.ready)
    app: LlmRouter = container.app
    return rig.nodes[3].hostname, app


def _turn(rig, router_host, session):
    return _post(rig.kernel, rig.fabric, "registry", router_host, 4000,
                 "/v1/chat/completions",
                 {"messages": [], "repro_session": session})


def _router_stats(rig, router_host):
    resp = _get(rig.kernel, rig.fabric, "registry", router_host, 4000,
                "/router/stats")
    assert resp.ok
    return parse_exposition(resp.json)


def _per_backend(stats, name):
    return {dict(labels)["backend"]: value
            for labels, value in stats[name].items()}


def test_session_sticks_to_one_backend(rig):
    s1 = _vllm_like_backend(rig, "hops01")
    s2 = _vllm_like_backend(rig, "hops02")
    router_host, app = _start_router(rig, ["hops01", "hops02"])
    for turn in range(6):
        assert _turn(rig, router_host, "conv-1").ok
    # All six turns landed on one backend; the other saw nothing.
    assert sorted([s1["calls"], s2["calls"]]) == [0, 6]
    served = app.find_backend("hops01", 8000) \
        if s1["calls"] else app.find_backend("hops02", 8000)
    assert served.cache_hits == 5          # every turn after the first
    assert served.cache_misses == 1
    assert served.sessions_assigned == 1


def test_new_sessions_spread_least_outstanding(rig):
    states = [_vllm_like_backend(rig, f"hops0{i}") for i in (1, 2)]
    router_host, app = _start_router(rig, ["hops01", "hops02"])
    for i in range(8):
        assert _turn(rig, router_host, f"conv-{i}").ok
    # Idle backends tie on outstanding; the rotation spreads sessions.
    assert states[0]["calls"] > 0 and states[1]["calls"] > 0
    assert _router_stats(rig, router_host)["router_sessions_tracked"][()] == 8


def test_quarantined_sticky_backend_falls_back_and_restick(rig):
    s1 = _vllm_like_backend(rig, "hops01")
    s2 = _vllm_like_backend(rig, "hops02")
    router_host, app = _start_router(rig, ["hops01", "hops02"])
    assert _turn(rig, router_host, "conv-1").ok
    sticky = "hops01" if s1["calls"] else "hops02"
    other_state = s2 if s1["calls"] else s1
    app.find_backend(sticky, 8000).healthy = False   # quarantine
    app._epoch += 1
    before = app.affinity_reassignments
    assert _turn(rig, router_host, "conv-1").ok
    assert app.affinity_reassignments == before + 1
    assert other_state["calls"] == 1
    # ...and the session now sticks to the survivor.
    assert _turn(rig, router_host, "conv-1").ok
    assert other_state["calls"] == 2
    assert app._affinity["conv-1"] != f"{sticky}:8000"
    # The reassignment is attributed to the surviving backend too.
    survivor = next(b for b in app.backends
                    if b.key == app._affinity["conv-1"])
    assert survivor.sessions_assigned == 1


def test_failover_mid_turn_updates_affinity(rig):
    """A forward that 5xx's on the sticky backend succeeds on another —
    which then owns the freshest context, so stickiness follows it."""
    s1 = _vllm_like_backend(rig, "hops01")
    s2 = _vllm_like_backend(rig, "hops02")
    router_host, app = _start_router(rig, ["hops01", "hops02"])
    assert _turn(rig, router_host, "conv-1").ok
    sticky_state = s1 if s1["calls"] else s2
    survivor_key = "hops02:8000" if s1["calls"] else "hops01:8000"
    sticky_state["healthy"] = False                   # 5xx on forward
    assert _turn(rig, router_host, "conv-1").ok       # saved by failover
    assert app._affinity["conv-1"] == survivor_key
    assert app.retried_ok == 1


def test_router_cache_series_report_per_backend_stats(rig):
    _vllm_like_backend(rig, "hops01")
    _vllm_like_backend(rig, "hops02")
    router_host, app = _start_router(rig, ["hops01", "hops02"])
    for i in range(4):
        for _ in range(2):
            assert _turn(rig, router_host, f"conv-{i}").ok
    stats = _router_stats(rig, router_host)
    assert stats["router_sessions_tracked"][()] == 4
    hits = _per_backend(stats, "router_cache_hits_total")
    misses = _per_backend(stats, "router_cache_misses_total")
    assert set(hits) == set(misses) == {"hops01:8000", "hops02:8000"}
    assert sum(hits.values()) == 4 and sum(misses.values()) == 4
    cached = _per_backend(stats, "router_cached_tokens_total")
    assert sum(cached.values()) == 4 * 64
    assigned = _per_backend(stats, "router_sessions_assigned_total")
    assert sum(assigned.values()) == 4
    # Each backend's hits are the sessions it was assigned, revisited.
    assert hits == assigned


def test_router_cache_series_cover_a_dead_backend(rig):
    _vllm_like_backend(rig, "hops01")
    router_host, app = _start_router(rig, ["hops01"])
    app.add_backend("hops03", 8000)                # nothing listens there
    for _ in range(2):
        assert _turn(rig, router_host, "conv-1").ok
    # The route reads the registry only, so a backend nothing answers
    # for still reports, with zeros.
    stats = _router_stats(rig, router_host)
    hits = _per_backend(stats, "router_cache_hits_total")
    misses = _per_backend(stats, "router_cache_misses_total")
    assert hits == {"hops01:8000": 1, "hops03:8000": 0}
    assert misses == {"hops01:8000": 1, "hops03:8000": 0}


def test_unkeyed_requests_ignore_affinity_machinery(rig):
    _vllm_like_backend(rig, "hops01")
    _vllm_like_backend(rig, "hops02")
    router_host, app = _start_router(rig, ["hops01", "hops02"])
    for _ in range(4):
        assert _post(rig.kernel, rig.fabric, "registry", router_host,
                     4000, "/v1/chat/completions", {"messages": []}).ok
    assert _router_stats(rig, router_host)["router_sessions_tracked"][()] == 0


def test_affinity_map_is_bounded(rig):
    _vllm_like_backend(rig, "hops01")
    router_host, app = _start_router(rig, ["hops01"])
    app.AFFINITY_CAP = 16
    for i in range(40):
        assert _turn(rig, router_host, f"conv-{i}").ok
    assert len(app._affinity) == 16
    # The survivors are the most recent sessions.
    assert "conv-39" in app._affinity and "conv-0" not in app._affinity