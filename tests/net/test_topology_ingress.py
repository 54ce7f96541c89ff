"""Tests for fabric routing, HTTP reachability, tunnels, proxy, and CaL."""

from __future__ import annotations

import pytest

from repro.errors import APIError, ConfigurationError, NetworkUnreachable
from repro.net import (ComputeAsLogin, Fabric, HttpClient, HttpResponse,
                       HttpService, NginxProxy, SshTunnel)
from repro.units import gbps


def _site(kernel) -> Fabric:
    """Miniature site: user (external) - login/proxy - spine - compute + s3."""
    fab = Fabric(kernel)
    fab.add_host("user", zone="external", externally_reachable=True)
    fab.add_host("login", zone="hops", externally_reachable=True)
    fab.add_host("svcnode", zone="hops", externally_reachable=True)
    fab.add_host("hops01", zone="hops")
    fab.add_host("hops02", zone="hops")
    fab.add_host("s3", zone="site")
    spine = fab.add_switch("spine")
    campus = fab.add_switch("campus")
    fab.connect("user", campus, gbps(1))
    fab.connect(campus, spine, gbps(100))
    fab.connect("login", spine, gbps(25))
    fab.connect("svcnode", spine, gbps(25))
    fab.connect("hops01", spine, gbps(200))
    fab.connect("hops02", spine, gbps(200))
    fab.connect("s3", spine, gbps(400))
    return fab


def _echo_service(fab, host, port=8000):
    def handler(request):
        return HttpResponse(status=200,
                            json={"echo": request.json, "path": request.path})
    return HttpService(fab, host, port, handler, name="echo")


def _run_request(kernel, client, *args, **kw):
    def proc(env):
        response = yield from client.request(*args, **kw)
        return response
    return kernel.run(until=kernel.spawn(proc(kernel)))


def test_shortest_path_routing(kernel):
    fab = _site(kernel)
    assert fab.vertex_path("hops01", "s3") == ["hops01", "spine", "s3"]


def test_route_override_and_removal(kernel):
    fab = _site(kernel)
    fab.connect("hops01", "campus", gbps(10))
    fab.add_route("hops01", "s3", via=["hops01", "campus", "spine", "s3"])
    assert "campus" in fab.vertex_path("hops01", "s3")
    fab.remove_route("hops01", "s3")
    assert fab.vertex_path("hops01", "s3") == ["hops01", "spine", "s3"]


def test_zone_route_override(kernel):
    fab = _site(kernel)
    fab.connect("hops01", "campus", gbps(10))
    fab.connect("campus", "s3", gbps(10))
    fab.add_route("zone:hops", "s3", via=["campus"])
    assert fab.vertex_path("hops01", "s3") == ["hops01", "campus", "s3"]
    # Host-specific override beats zone override.
    fab.add_route("hops01", "s3", via=["hops01", "spine", "s3"])
    assert fab.vertex_path("hops01", "s3") == ["hops01", "spine", "s3"]


def test_latency_hop_memo_follows_every_path_change(kernel):
    """``latency`` memoises hop counts; each route, link, partition or
    heal must be seen exactly as a fresh resolution would see it."""
    fab = _site(kernel)

    def fresh():
        return (fab.base_latency * fab.latency_factor
                * max(1, len(fab._resolve_path("hops01", "s3")) - 1))

    assert fab.latency("hops01", "s3") == fresh() == 2 * fab.base_latency
    fab.connect("hops01", "campus", gbps(10))
    fab.add_route("hops01", "s3", via=["hops01", "campus", "spine", "s3"])
    assert fab.latency("hops01", "s3") == fresh() == 3 * fab.base_latency
    fab.set_latency_factor(2.5)
    assert fab.latency("hops01", "s3") == fresh()
    fab.remove_route("hops01", "s3")
    assert fab.latency("hops01", "s3") == fresh()
    fab.partition_host("s3")
    with pytest.raises(NetworkUnreachable):
        fab.latency("hops01", "s3")
    fab.heal_host("s3")
    assert fab.latency("hops01", "s3") == fresh()
    fab.connect("hops01", "s3", gbps(10))
    assert fab.latency("hops01", "s3") == fresh() == 2.5 * fab.base_latency
    assert fab.latency("s3", "s3") == 2.5 * fab.base_latency


def test_unreachable_host_raises(kernel):
    fab = _site(kernel)
    fab.add_host("island", zone="nowhere")
    with pytest.raises(NetworkUnreachable):
        fab.vertex_path("user", "island")


def test_bad_route_override_rejected(kernel):
    fab = _site(kernel)
    fab.add_route("hops01", "s3", via=["hops01", "login", "s3"])
    with pytest.raises(ConfigurationError):
        fab.vertex_path("hops01", "s3")


def test_http_internal_to_internal(kernel):
    fab = _site(kernel)
    _echo_service(fab, "hops01")
    client = HttpClient(fab, "hops02")
    resp = _run_request(kernel, client, "POST", "hops01", 8000, "/v1/ping",
                        json={"x": 1})
    assert resp.ok and resp.json["echo"] == {"x": 1}


def test_http_external_blocked_without_ingress(kernel):
    fab = _site(kernel)
    _echo_service(fab, "hops01")
    client = HttpClient(fab, "user")

    def proc(env):
        try:
            yield from client.request("GET", "hops01", 8000, "/")
        except NetworkUnreachable:
            return "blocked"
        return "allowed"

    assert kernel.run(until=kernel.spawn(proc(kernel))) == "blocked"


def test_http_connection_refused(kernel):
    fab = _site(kernel)
    client = HttpClient(fab, "hops02")

    def proc(env):
        try:
            yield from client.request("GET", "hops01", 9999, "/")
        except APIError as exc:
            return exc.status
        return None

    assert kernel.run(until=kernel.spawn(proc(kernel))) == 502


def test_ssh_tunnel_enables_single_user_access(kernel):
    fab = _site(kernel)
    _echo_service(fab, "hops01")
    tunnel = SshTunnel(fab, "user", "login", "hops01", 8000)
    assert tunnel.command == "ssh -L 8000:hops01:8000 -N -f login"
    client = HttpClient(fab, "user")
    resp = _run_request(kernel, client, "GET", "user", 8000, "/v1/models")
    assert resp.ok and resp.json["path"] == "/v1/models"
    tunnel.close()

    def proc(env):
        try:
            yield from client.request("GET", "user", 8000, "/")
        except APIError as exc:
            return exc.status

    assert kernel.run(until=kernel.spawn(proc(kernel))) == 502


def test_ssh_tunnel_rejects_other_users(kernel):
    fab = _site(kernel)
    fab.add_host("user2", zone="external", externally_reachable=True)
    fab.connect("user2", "campus", gbps(1))
    _echo_service(fab, "hops01")
    SshTunnel(fab, "user", "login", "hops01", 8000)
    other = HttpClient(fab, "user2")

    def proc(env):
        resp = yield from other.request("GET", "user", 8000, "/")
        return resp.status

    assert kernel.run(until=kernel.spawn(proc(kernel))) == 403


def test_nginx_proxy_routes_and_retargets(kernel):
    fab = _site(kernel)
    _echo_service(fab, "hops01")
    _echo_service(fab, "hops02")
    proxy = NginxProxy(fab, "svcnode")
    up = proxy.add_upstream(9001, "hops01", 8000)
    client = HttpClient(fab, "user")
    resp = _run_request(kernel, client, "GET", "svcnode", 9001, "/a")
    assert resp.ok
    proxy.retarget(9001, "hops02", 8000)
    resp = _run_request(kernel, client, "GET", "svcnode", 9001, "/b")
    assert resp.ok
    assert up.url == "http://svcnode:9001"


def test_cal_lifecycle(kernel):
    fab = _site(kernel)
    _echo_service(fab, "hops01")
    _echo_service(fab, "hops02")
    proxy = NginxProxy(fab, "svcnode")
    cal = ComputeAsLogin(fab, proxy)
    lease = cal.provision("alice", "hops01")
    client = HttpClient(fab, "user")
    resp = _run_request(kernel, client, "GET", "svcnode",
                        lease.external_port, "/x")
    assert resp.ok
    # Self-service redeploy onto another node.
    cal.retarget(lease, "hops02")
    resp = _run_request(kernel, client, "GET", "svcnode",
                        lease.external_port, "/y")
    assert resp.ok
    cal.release(lease)
    assert not lease.active
    # Double-provision guard.
    cal.provision("alice", "hops01")
    with pytest.raises(Exception):
        cal.provision("alice", "hops01")


def test_transfer_between_hosts_uses_route(kernel):
    fab = _site(kernel)
    flow = fab.start_transfer("hops01", "s3", 1e9)
    kernel.run(until=flow.done)
    # Bottleneck is the hops01->spine 200 Gbps link? No: s3 link is 400,
    # hops01 is 200 Gbps -> 25 GB/s -> 0.04 s.
    assert flow.mean_throughput == pytest.approx(gbps(200))
