"""Router failover, recovery, policies, and dynamic membership.

The paper's HPC resilience recipe is a user-deployed request router; these
tests cover the parts the fleet autoscaler leans on: backends crashing
mid-request and being quarantined, health-pass recovery re-admitting
them, fair rotation after failover (the shrinking-pool round-robin fix),
least-outstanding balancing, and runtime backend add/remove.
"""

from __future__ import annotations

import pytest

from repro.containers import RunOpts
from repro.errors import ConfigurationError
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


def _backend(rig, host, delay=0.0):
    """A fake vLLM endpoint; ``state`` toggles health and tracks calls."""
    state = {"healthy": True, "calls": 0, "delay": delay}
    kernel = rig.kernel

    def handler(request):
        if request.path == "/health":
            if state["healthy"]:
                return HttpResponse(200, json={"status": "ok"})
            return HttpResponse(500, json={"error": "down"})
        state["calls"] += 1
        if state["delay"] > 0:
            yield kernel.timeout(state["delay"])
        if not state["healthy"]:
            return HttpResponse(500, json={"error": "down"})
        return HttpResponse(200, json={
            "choices": [{"message": {"role": "assistant",
                                     "content": f"from {host}"}}],
            "usage": {"prompt_tokens": 1, "completion_tokens": 1,
                      "total_tokens": 2}})

    HttpService(rig.fabric, host, 8000, handler)
    return state


def _start_router(rig, backends, policy="round-robin"):
    rig.registry.seed(router_image())
    container = drive(rig.kernel, rig.podman.run(
        rig.nodes[3], "berriai/litellm:main",
        RunOpts(network_host=True,
                env={"BACKENDS": ",".join(f"{b}:8000" for b in backends),
                     **RouterConfig(policy=policy).to_env()})))
    rig.kernel.run(until=container.ready)
    app: LlmRouter = container.app
    return rig.nodes[3].hostname, app


def test_crash_mid_request_marks_backend_unhealthy(rig):
    """UNHEALTHY_AFTER request failures quarantine the backend without
    waiting for a health pass."""
    s1 = _backend(rig, "hops01")
    s2 = _backend(rig, "hops02")
    router_host, app = _start_router(rig, ["hops01", "hops02"])
    s1["healthy"] = False            # crash: requests now fail
    for _ in range(2 * LlmRouter.UNHEALTHY_AFTER):
        r = _post(rig.kernel, rig.fabric, "registry", router_host, 4000,
                  "/v1/chat/completions", {"messages": []})
        assert r.ok                  # failover hides the crash
    b1 = app.find_backend("hops01", 8000)
    assert not b1.healthy
    assert b1.consecutive_failures >= LlmRouter.UNHEALTHY_AFTER
    # All traffic flows to the survivor now, with zero request attempts
    # against the quarantined backend.
    calls_before = s1["calls"]
    for _ in range(4):
        assert _post(rig.kernel, rig.fabric, "registry", router_host, 4000,
                     "/v1/chat/completions", {"messages": []}).ok
    assert s1["calls"] == calls_before


def test_health_pass_recovery_readmits_backend(rig):
    s1 = _backend(rig, "hops01")
    s2 = _backend(rig, "hops02")
    router_host, app = _start_router(rig, ["hops01", "hops02"])
    s1["healthy"] = False
    # Rotation alternates first-choice backends, so it takes two requests
    # per failure attempt against hops01.
    for _ in range(2 * LlmRouter.UNHEALTHY_AFTER):
        _post(rig.kernel, rig.fabric, "registry", router_host, 4000,
              "/v1/chat/completions", {"messages": []})
    assert not app.find_backend("hops01", 8000).healthy
    # Recovery: the next health pass re-admits it.
    s1["healthy"] = True
    rig.kernel.run(until=rig.kernel.now + 2 * LlmRouter.HEALTH_INTERVAL)
    assert app.find_backend("hops01", 8000).healthy
    calls_before = s1["calls"]
    for _ in range(4):
        assert _post(rig.kernel, rig.fabric, "registry", router_host, 4000,
                     "/v1/chat/completions", {"messages": []}).ok
    assert s1["calls"] > calls_before          # traffic is back


def test_round_robin_fair_after_failover(rig):
    """The shrinking-pool fix: with one of three backends down, the two
    survivors split traffic evenly instead of skewing."""
    s1 = _backend(rig, "hops01")
    s2 = _backend(rig, "hops02")
    s3 = _backend(rig, "hops03")
    router_host, app = _start_router(rig, ["hops01", "hops02", "hops03"])
    s2["healthy"] = False
    rig.kernel.run(until=rig.kernel.now + 3 * LlmRouter.HEALTH_INTERVAL)
    assert not app.find_backend("hops02", 8000).healthy
    s1["calls"] = s3["calls"] = 0
    for _ in range(10):
        assert _post(rig.kernel, rig.fabric, "registry", router_host, 4000,
                     "/v1/chat/completions", {"messages": []}).ok
    assert s1["calls"] == s3["calls"] == 5


def test_least_outstanding_prefers_idle_backend(rig):
    """Concurrent requests spread away from the slow (busy) backend."""
    slow = _backend(rig, "hops01", delay=20.0)
    fast = _backend(rig, "hops02", delay=0.1)
    router_host, app = _start_router(rig, ["hops01", "hops02"],
                                     policy="least-outstanding")
    client = HttpClient(rig.fabric, "registry")

    def one(env, delay):
        yield rig.kernel.timeout(delay)
        resp = yield from client.post(router_host, 4000,
                                      "/v1/chat/completions",
                                      json={"messages": []})
        return resp.ok

    kernel = rig.kernel
    procs = [kernel.spawn(one(kernel, i * 0.5)) for i in range(8)]
    kernel.run(until=kernel.all_of(procs))
    assert all(p.value for p in procs)
    # The first request lands on the slow backend (tie at 0 outstanding);
    # while it is stuck there for 20 s, every later arrival sees it busy.
    assert slow["calls"] == 1
    assert fast["calls"] == 7


def test_admin_routes_add_remove_backends(rig):
    s1 = _backend(rig, "hops01")
    s2 = _backend(rig, "hops02")
    router_host, app = _start_router(rig, ["hops01"])
    k, fab = rig.kernel, rig.fabric
    # Stats + membership listing.
    r = _post(k, fab, "registry", router_host, 4000, "/router/backends",
              {"op": "add", "host": "hops02", "port": 8000})
    assert r.ok
    assert [b.key for b in app.backends] == ["hops01:8000", "hops02:8000"]
    for _ in range(4):
        assert _post(k, fab, "registry", router_host, 4000,
                     "/v1/chat/completions", {"messages": []}).ok
    assert s2["calls"] == 2                     # round-robin includes it
    r = _post(k, fab, "registry", router_host, 4000, "/router/backends",
              {"op": "remove", "host": "hops01", "port": 8000})
    assert r.ok
    calls_before = s1["calls"]
    for _ in range(3):
        assert _post(k, fab, "registry", router_host, 4000,
                     "/v1/chat/completions", {"messages": []}).ok
    assert s1["calls"] == calls_before
    assert s2["calls"] == 5
    # Removing an unknown backend 404s; malformed ops 400.
    r = _post(k, fab, "registry", router_host, 4000, "/router/backends",
              {"op": "remove", "host": "nope"})
    assert r.status == 404
    r = _post(k, fab, "registry", router_host, 4000, "/router/backends",
              {"op": "frobnicate", "host": "hops01"})
    assert r.status == 400
    r = _post(k, fab, "registry", router_host, 4000, "/router/backends",
              {"op": "add", "host": "hops01", "port": "not-a-port"})
    assert r.status == 400
    # Removing the last backend must degrade to 503, not crash routing.
    r = _post(k, fab, "registry", router_host, 4000, "/router/backends",
              {"op": "remove", "host": "hops02", "port": 8000})
    assert r.ok
    r = _post(k, fab, "registry", router_host, 4000,
              "/v1/chat/completions", {"messages": []})
    assert r.status == 503


def test_stats_reports_outstanding_and_served(rig):
    _backend(rig, "hops01")
    router_host, app = _start_router(rig, ["hops01"])
    k, fab = rig.kernel, rig.fabric
    for _ in range(3):
        assert _post(k, fab, "registry", router_host, 4000,
                     "/v1/chat/completions", {"messages": []}).ok
    client = HttpClient(fab, "registry")

    def get_stats(env):
        resp = yield from client.get(router_host, 4000, "/router/stats")
        return resp

    resp = k.run(until=k.spawn(get_stats(k)))
    assert resp.ok and resp.headers["content-type"] == "text/plain"
    stats = parse_exposition(resp.json)
    assert stats["router_backends_healthy"][()] == 1
    assert stats["router_outstanding"][()] == 0
    assert stats["router_backend_served_total"] == {
        (("backend", "hops01:8000"),): 3}
    assert (app.healthy_backends, app.outstanding) == (1, 0)


def test_rotation_state_bounded_under_churn(rig):
    """Chaos-style churn (add/remove/quarantine cycles) must not grow
    the router's rotation state: the old per-composition counter table
    kept one entry per pool composition ever seen, unbounded over long
    campaigns.  The epoch-cached rotation is O(current pool)."""
    s1 = _backend(rig, "hops01")
    s2 = _backend(rig, "hops02")
    router_host, app = _start_router(rig, ["hops01", "hops02"])
    for cycle in range(50):
        # Every cycle creates a composition never seen before (member
        # churn) plus health flips (quarantine churn).
        app.add_backend(f"ephemeral{cycle:03d}", 8000)
        s1["healthy"] = cycle % 2 == 0
        for _ in range(2 * LlmRouter.UNHEALTHY_AFTER):
            _post(rig.kernel, rig.fabric, "registry", router_host, 4000,
                  "/v1/chat/completions", {"messages": []})
        app.remove_backend(f"ephemeral{cycle:03d}", 8000)
    s1["healthy"] = True
    assert not hasattr(app, "_rr_by_pool")      # the unbounded table is gone
    assert len(app._serving_pool()) <= len(app.backends) == 2
    # Rotation state is one counter per role pool in play (here just the
    # unified "*" pool), not per composition ever seen.
    assert set(app._rr_idx) <= {"*", "unified", "prefill", "decode"}
    # Rotation still serves and fails over correctly after the churn.
    rig.kernel.run(until=rig.kernel.now + 2 * LlmRouter.HEALTH_INTERVAL)
    s1["calls"] = s2["calls"] = 0
    for _ in range(6):
        assert _post(rig.kernel, rig.fabric, "registry", router_host, 4000,
                     "/v1/chat/completions", {"messages": []}).ok
    assert s1["calls"] == s2["calls"] == 3


def test_unknown_policy_crashes_startup(rig):
    from repro.errors import ContainerCrash
    _backend(rig, "hops01")
    rig.registry.seed(router_image())
    container = drive(rig.kernel, rig.podman.run(
        rig.nodes[3], "berriai/litellm:main",
        RunOpts(network_host=True,
                env={"BACKENDS": "hops01:8000",
                     "ROUTER_CONFIG": '{"policy": "spray-and-pray"}'})))
    with pytest.raises(ContainerCrash, match="ROUTER_CONFIG"):
        rig.kernel.run(until=container.ready)


def test_unknown_backend_role_is_refused():
    """A misspelled role would leave the backend out of every disagg
    pool; add_backend refuses it instead."""
    app = LlmRouter()
    with pytest.raises(ConfigurationError, match="'prefil'"):
        app.add_backend("h1", 8000, role="prefil")
    assert app.backends == []
    assert app.add_backend("h1", 8000, role="prefill").role == "prefill"
    assert app._serving_pool("prefill") == app.backends


def test_unknown_backend_role_crashes_startup(rig):
    from repro.errors import ContainerCrash
    _backend(rig, "hops01")
    rig.registry.seed(router_image())
    container = drive(rig.kernel, rig.podman.run(
        rig.nodes[3], "berriai/litellm:main",
        RunOpts(network_host=True, env={"BACKENDS": "hops01:8000:prefil"})))
    with pytest.raises(ContainerCrash, match="bad BACKENDS.*'prefil'"):
        rig.kernel.run(until=container.ready)


def test_admin_route_refuses_unknown_backend_role(rig):
    _backend(rig, "hops01")
    router_host, app = _start_router(rig, ["hops01"])
    r = _post(rig.kernel, rig.fabric, "registry", router_host, 4000,
              "/router/backends",
              {"op": "add", "host": "hops02", "role": "prefil"})
    assert r.status == 400 and "'prefil'" in r.json["error"]
    assert [b.key for b in app.backends] == ["hops01:8000"]
