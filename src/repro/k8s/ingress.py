"""Ingress controller: external URL -> Service -> a ready Pod.

Backends are re-resolved on *every request*, so pod restarts and
migrations are picked up automatically — the paper's "Kubernetes
automatically takes care of restarting the container and updating the
ingress routes".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import APIError
from ..net.http import HttpClient, HttpRequest, HttpService
from .objects import Ingress, Service

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import KubernetesCluster


class IngressController:
    """One HTTP frontend on the cluster's externally reachable host."""

    def __init__(self, cluster: KubernetesCluster, frontend_host: str,
                 port: int = 443):
        self.cluster = cluster
        self.api = cluster.api
        self.frontend_host = frontend_host
        self.port = port
        self._rr: dict[str, int] = {}
        self._client = HttpClient(cluster.fabric, frontend_host)
        self._service = HttpService(cluster.fabric, frontend_host, port,
                                    self._handle, name="ingress")

    @property
    def url(self) -> str:
        return f"https://{self.frontend_host}:{self.port}"

    # -- request path ------------------------------------------------------------

    def _resolve(self, request: HttpRequest) -> tuple[str, int]:
        """Match ingress rules (longest path prefix), then pick a ready pod."""
        rules: list[Ingress] = self.api.list("Ingress")
        matches = [r for r in rules if request.path.startswith(r.path)]
        host_header = request.header("host")
        if host_header:
            host_rules = [r for r in matches if r.host == host_header]
            matches = host_rules or matches
        if not matches:
            raise APIError(404, f"no ingress rule for {request.path!r}")
        rule = max(matches, key=lambda r: len(r.path))
        service: Service | None = self.api.try_get(
            "Service", rule.service_name, rule.meta.namespace)
        if service is None:
            raise APIError(503, f"service {rule.service_name!r} not found")
        endpoints = [p for p in self.api.list("Pod", rule.meta.namespace,
                                              selector=service.selector)
                     if p.serving]
        if not endpoints:
            raise APIError(503, "no ready endpoints behind service "
                                f"{service.meta.name!r}")
        idx = self._rr.get(service.meta.name, 0) % len(endpoints)
        self._rr[service.meta.name] = idx + 1
        pod = endpoints[idx]
        return pod.node_name, service.target_port

    def _handle(self, request: HttpRequest):
        node_host, port = self._resolve(request)
        response = yield from self._client.request(
            request.method, node_host, port, request.path,
            json=request.json, headers=request.headers,
            body_bytes=request.body_bytes)
        return response
