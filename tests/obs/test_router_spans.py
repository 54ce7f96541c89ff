"""Failover visibility: failed hops become "attempt" child spans."""

from __future__ import annotations

from repro.containers import RunOpts
from repro.services import router_image
from repro.services.router import RouterConfig
from tests.containers.conftest import drive
from tests.services.test_router_failover import (_backend, _post,
                                                 _start_router)


def _named(spans, name):
    return [s for s in spans.finished if s.name == name]


def test_failed_hops_emit_attempt_spans(rig):
    s1 = _backend(rig, "hops01")
    s2 = _backend(rig, "hops02")
    router_host, app = _start_router(rig, ["hops01", "hops02"])
    kernel = rig.kernel
    spans = kernel.obs.spans
    trace_id, root_sid = spans.start_trace()
    s1["healthy"] = False                # first hop fails, failover saves it
    resp = _post(kernel, rig.fabric, "registry", router_host, 4000,
                 "/v1/chat/completions",
                 {"messages": [], "repro_trace": trace_id,
                  "repro_parent": root_sid})
    assert resp.ok

    route = _named(spans, "route")
    attempts = _named(spans, "attempt")
    # Exactly the failed hop got an attempt child; the route span names
    # the backend that finally served.
    ok_routes = [s for s in route if s.attrs.get("outcome") == "ok"]
    assert len(ok_routes) == 1
    assert ok_routes[0].parent_id == root_sid
    assert ok_routes[0].attrs["attempts"] == 2
    failed = [s for s in attempts if s.parent_id == ok_routes[0].span_id]
    assert len(failed) == 1
    assert failed[0].attrs["backend"] == "hops01:8000"
    assert failed[0].attrs["outcome"] in ("error", "http_500")
    assert ok_routes[0].attrs["backend"] == "hops02:8000"
    assert failed[0].start >= ok_routes[0].start
    assert failed[0].end <= ok_routes[0].end


def test_untraced_requests_emit_no_spans(rig):
    _backend(rig, "hops01")
    router_host, app = _start_router(rig, ["hops01"])
    resp = _post(rig.kernel, rig.fabric, "registry", router_host, 4000,
                 "/v1/chat/completions", {"messages": []})
    assert resp.ok
    assert rig.kernel.obs.spans.finished == []


def test_disagg_missing_handoff_emits_the_failed_route_span(rig):
    """A prefill-role backend that answers without a KV handoff (a
    unified server under the wrong role) fails the call with 502, and
    the route span still closes, marked failed on the prefill leg."""
    _backend(rig, "hops01")
    rig.registry.seed(router_image())
    container = drive(rig.kernel, rig.podman.run(
        rig.nodes[3], "berriai/litellm:main",
        RunOpts(network_host=True,
                env={"BACKENDS": "hops01:8000:prefill",
                     **RouterConfig(disagg=True).to_env()})))
    kernel = rig.kernel
    kernel.run(until=container.ready)
    spans = kernel.obs.spans
    trace_id, root_sid = spans.start_trace()
    resp = _post(kernel, rig.fabric, "registry", rig.nodes[3].hostname,
                 4000, "/v1/chat/completions",
                 {"messages": [], "repro_trace": trace_id,
                  "repro_parent": root_sid})
    assert resp.status == 502
    assert "repro_handoff" in resp.json["error"]

    (route,) = _named(spans, "route")
    assert route.parent_id == root_sid
    assert route.attrs == {"attempts": 1, "path": "disagg",
                           "outcome": "failed", "leg": "prefill"}
