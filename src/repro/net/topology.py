"""Hosts, fabrics, and routing.

A :class:`Fabric` is the site-wide network graph: hosts and switches are
vertices, :class:`~repro.net.flows.Link` objects are edges (one Link per
direction).  Paths resolve by explicit *route overrides* first (how the
paper's routing bug is modeled: a default route pinning Hops-to-S3 traffic
onto a slow campus path), falling back to fewest-hops shortest path.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..errors import ConfigurationError, NetworkUnreachable, NotFoundError
from .flows import Flow, FlowNetwork, Link

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel


class Host:
    """A network endpoint (node NIC, service frontend, user workstation).

    ``zone`` groups hosts for routing/reachability policy, e.g.
    ``"hops"``, ``"goodall"``, ``"site"``, ``"external"``.  Cluster compute
    nodes are *not* reachable from ``external`` unless an ingress mechanism
    (SSH tunnel, CaL, K8s ingress) is in place — enforced at the HTTP layer.
    """

    def __init__(self, name: str, zone: str = "site",
                 externally_reachable: bool = False):
        self.name = name
        self.zone = zone
        self.externally_reachable = externally_reachable

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name} zone={self.zone}>"


class Fabric:
    """The site network: vertices, directed links, routes, and flows."""

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self.flows = FlowNetwork(kernel)
        self.hosts: dict[str, Host] = {}
        self._vertices: set[str] = set()
        # adjacency: vertex -> {neighbor: Link}
        self._adj: dict[str, dict[str, Link]] = {}
        self.links: dict[str, Link] = {}
        # (src_selector, dst_selector) -> vertex path; selectors are host
        # names or "zone:<zone>"; more-specific (host,host) wins.
        self._route_overrides: dict[tuple[str, str], list[str]] = {}
        self.base_latency = 0.0002  # per hop, seconds
        self.latency_factor = 1.0   # chaos: site-wide latency multiplier
        self._down_hosts: set[str] = set()
        # Resolved (src, dst) -> vertex path memo.  Every topology or
        # routing mutation (new vertex/link, route override, partition,
        # heal) flushes it, so a hit is always exactly what a fresh
        # resolution would return — pure memoization, no staleness.
        # The serving hot path resolves the same few router/backend
        # pairs millions of times per scenario; this takes each off the
        # per-request BFS.
        self._path_cache: dict[tuple[str, str], list[str]] = {}
        # (src, dst) -> hop count for latency(), flushed with the path
        # memo (see _flush_paths).
        self._hops: dict[tuple[str, str], int] = {}

    # -- construction ----------------------------------------------------------

    def add_host(self, name: str, zone: str = "site",
                 externally_reachable: bool = False) -> Host:
        if name in self.hosts:
            raise ConfigurationError(f"duplicate host {name!r}")
        host = Host(name, zone=zone, externally_reachable=externally_reachable)
        self.hosts[name] = host
        self._vertices.add(name)
        self._adj.setdefault(name, {})
        return host

    def add_switch(self, name: str) -> str:
        """A non-endpoint vertex (spine, router, frontend aggregator)."""
        self._vertices.add(name)
        self._adj.setdefault(name, {})
        return name

    def connect(self, a: str, b: str, bandwidth: float,
                name: str | None = None,
                bandwidth_ba: float | None = None) -> tuple[Link, Link]:
        """Create a bidirectional connection as two directed links."""
        for v in (a, b):
            if v not in self._vertices:
                raise NotFoundError(f"unknown vertex {v!r}")
        self._flush_paths()
        base = name or f"{a}--{b}"
        fwd = Link(f"{base}:fwd", bandwidth)
        rev = Link(f"{base}:rev", bandwidth_ba
                   if bandwidth_ba is not None else bandwidth)
        self._adj[a][b] = fwd
        self._adj[b][a] = rev
        self.links[fwd.name] = fwd
        self.links[rev.name] = rev
        return fwd, rev

    def add_route(self, src: str, dst: str, via: Sequence[str]) -> None:
        """Pin traffic from ``src`` to ``dst`` onto an explicit vertex path.

        ``src``/``dst`` may be host names or ``"zone:<name>"`` selectors.
        ``via`` is the complete vertex path including both endpoints for
        host selectors, or the interior path for zone selectors (the
        endpoints are substituted per-flow).
        """
        self._route_overrides[(src, dst)] = list(via)
        self._flush_paths()

    def remove_route(self, src: str, dst: str) -> None:
        self._route_overrides.pop((src, dst), None)
        self._flush_paths()

    # -- fault injection ---------------------------------------------------------

    def partition_host(self, name: str) -> None:
        """Cut a host off the fabric: every path to or from it fails with
        :class:`NetworkUnreachable` until :meth:`heal_host`."""
        if name not in self.hosts:
            raise NotFoundError(f"unknown host {name!r}")
        self._down_hosts.add(name)
        self._flush_paths()
        self.kernel.trace.emit("net.partition", host=name)

    def heal_host(self, name: str) -> None:
        self._down_hosts.discard(name)
        self._flush_paths()
        self.kernel.trace.emit("net.heal", host=name)

    def partitioned(self, name: str) -> bool:
        return name in self._down_hosts

    def set_latency_factor(self, factor: float) -> None:
        """Scale every per-hop latency (chaos latency-spike injection)."""
        if factor <= 0:
            raise ConfigurationError(f"latency factor must be > 0: {factor}")
        self.latency_factor = float(factor)
        self.kernel.trace.emit("net.latency_factor", factor=factor)

    # -- path resolution -----------------------------------------------------------

    def _flush_paths(self) -> None:
        self._path_cache.clear()
        self._hops.clear()

    def _selectors(self, host: Host) -> list[str]:
        return [host.name, f"zone:{host.zone}"]

    def vertex_path(self, src: str, dst: str) -> list[str]:
        """Resolve the vertex path from src host to dst host.

        Memoized per (src, dst); the memo is flushed on every mutation,
        so the result is always identical to a fresh resolution.  Treat
        the returned list as read-only.
        """
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        path = self._resolve_path(src, dst)
        self._path_cache[(src, dst)] = path
        return path

    def _resolve_path(self, src: str, dst: str) -> list[str]:
        if src == dst:
            return [src]
        for endpoint in (src, dst):
            if endpoint in self._down_hosts:
                raise NetworkUnreachable(
                    f"host {endpoint!r} is partitioned from the fabric",
                    sim_time=self.kernel.now)
        s, d = self.hosts.get(src), self.hosts.get(dst)
        if s is None or d is None:
            raise NotFoundError(f"unknown host in route {src!r} -> {dst!r}")
        # Most-specific override wins: (host,host), (host,zone),
        # (zone,host), (zone,zone).
        for ssel in self._selectors(s):
            for dsel in self._selectors(d):
                via = self._route_overrides.get((ssel, dsel))
                if via is not None:
                    path = list(via)
                    if path[0] != src:
                        path = [src] + path
                    if path[-1] != dst:
                        path = path + [dst]
                    self._validate_path(path)
                    return path
        return self._shortest_path(src, dst)

    def _validate_path(self, path: list[str]) -> None:
        for a, b in zip(path, path[1:], strict=False):
            if b not in self._adj.get(a, {}):
                raise ConfigurationError(
                    f"route override uses missing link {a!r}->{b!r}")

    def _shortest_path(self, src: str, dst: str) -> list[str]:
        # BFS by hop count; deterministic tie-break on vertex name.
        from collections import deque
        prev: dict[str, str] = {src: src}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            if v == dst:
                break
            for nbr in sorted(self._adj[v]):
                if nbr not in prev:
                    prev[nbr] = v
                    queue.append(nbr)
        if dst not in prev:
            raise NetworkUnreachable(
                f"no route {src!r} -> {dst!r}", sim_time=self.kernel.now)
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def link_path(self, src: str, dst: str) -> list[Link]:
        """The directed links along the resolved vertex path."""
        vpath = self.vertex_path(src, dst)
        return [self._adj[a][b]
                for a, b in zip(vpath, vpath[1:], strict=False)]

    def latency(self, src: str, dst: str) -> float:
        """One-way latency along the resolved path."""
        hops = self._hops.get((src, dst))
        if hops is None:
            hops = self._hops[(src, dst)] = max(
                1, len(self.vertex_path(src, dst)) - 1)
        return self.base_latency * self.latency_factor * hops

    # -- transfers --------------------------------------------------------------------

    def start_transfer(self, src: str, dst: str, nbytes: float,
                       name: str = "", rate_cap: float | None = None) -> Flow:
        """Begin a bulk transfer between two hosts."""
        path = self.link_path(src, dst)
        return self.flows.start_flow(path, nbytes,
                                     name=name or f"{src}->{dst}",
                                     rate_cap=rate_cap)

    def transfer(self, src: str, dst: str, nbytes: float, name: str = "",
                 rate_cap: float | None = None):
        """Process helper: yield-from to move bytes and return the Flow."""
        flow = self.start_transfer(src, dst, nbytes, name=name,
                                   rate_cap=rate_cap)
        yield flow.done
        return flow
