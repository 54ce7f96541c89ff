"""Simulated HTTP: services bound to (host, port), clients, and forwarding.

Handlers can be plain functions (fast paths) or generator processes (they
may ``yield`` simulation events, e.g. an inference server awaiting token
generation).  Reachability policy: a client on an ``external``-zone host can
only reach services on externally reachable hosts — which is exactly why the
paper needs SSH tunnels, Compute-as-Login, or Kubernetes ingress.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from collections.abc import Callable, Generator
from typing import TYPE_CHECKING, Any

from ..errors import APIError, ConfigurationError, NetworkUnreachable
from .topology import Fabric

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    json: Any = None
    body_bytes: int = 0
    client_host: str = ""

    def header(self, name: str, default: str | None = None) -> str | None:
        for k, v in self.headers.items():
            if k.lower() == name.lower():
                return v
        return default


@dataclass
class HttpResponse:
    status: int = 200
    json: Any = None
    body_bytes: int = 0
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


Handler = Callable[[HttpRequest], Any]


class HttpService:
    """A handler bound to (host, port) on a fabric."""

    def __init__(self, fabric: Fabric, host: str, port: int,
                 handler: Handler, name: str = ""):
        self.fabric = fabric
        self.host = host
        self.port = port
        self.handler = handler
        #: the app whose method serves this port (None for a plain
        #: function handler); in-process callers pick their protocol
        #: from its kind
        self.app = getattr(handler, "__self__", None)
        self.name = name or f"{host}:{port}"
        key = (host, port)
        registry = _registry(fabric)
        if key in registry:
            raise ConfigurationError(f"port {port} already bound on {host}")
        registry[key] = self

    def close(self) -> None:
        _registry(self.fabric).pop((self.host, self.port), None)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HttpService {self.name} @{self.host}:{self.port}>"


def _registry(fabric: Fabric) -> dict[tuple[str, int], HttpService]:
    reg = getattr(fabric, "_http_services", None)
    if reg is None:
        reg = {}
        fabric._http_services = reg  # type: ignore[attr-defined]
    return reg


def lookup(fabric: Fabric, host: str, port: int) -> HttpService | None:
    return _registry(fabric).get((host, port))


class HttpClient:
    """An HTTP client living on a fabric host.

    :meth:`request` is a generator — drive it with ``yield from`` inside a
    simulation process, or via ``kernel.run(until=kernel.spawn(...))``.
    """

    def __init__(self, fabric: Fabric, host: str):
        self.fabric = fabric
        self.host = host
        if host not in fabric.hosts:
            raise ConfigurationError(f"client host {host!r} not on fabric")

    def preflight(self, host: str, port: int) -> HttpService:
        """The service a connection to ``(host, port)`` would reach.

        Raises :class:`NetworkUnreachable` when routing/reachability policy
        blocks the connection, and :class:`APIError` (502) when nothing
        listens on the target port.  In-process callers run this same
        check before they pay :meth:`request`'s fabric latencies.
        """
        service = lookup(self.fabric, host, port)
        client_zone = self.fabric.hosts[self.host].zone
        target = self.fabric.hosts.get(host)
        if target is None:
            raise NetworkUnreachable(f"unknown host {host!r}",
                                     sim_time=self.fabric.kernel.now)
        if client_zone == "external" and not target.externally_reachable:
            raise NetworkUnreachable(
                f"{host} is not reachable from the external network "
                "(use an SSH tunnel, Compute-as-Login, or K8s ingress)",
                sim_time=self.fabric.kernel.now)
        if service is None:
            raise APIError(502, f"connection refused: {host}:{port}")
        return service

    def request(self, method: str, host: str, port: int, path: str,
                json: Any = None, headers: dict[str, str] | None = None,
                body_bytes: int = 0,
                ) -> Generator[Any, Any, HttpResponse]:
        """Issue a request and return the response (raises as
        :meth:`preflight` does)."""
        kernel = self.fabric.kernel
        service = self.preflight(host, port)

        # Forward latency (+ optional request body transfer).
        yield self.fabric.latency(self.host, host)
        if body_bytes > 0:
            flow = self.fabric.start_transfer(
                self.host, host, body_bytes, name=f"http:{path}")
            yield flow.done

        request = HttpRequest(method=method.upper(), path=path,
                              headers=dict(headers or {}), json=json,
                              body_bytes=body_bytes, client_host=self.host)
        response = yield from _invoke(kernel, service, request)

        # Return latency (+ response body transfer).
        yield self.fabric.latency(host, self.host)
        if response.body_bytes > 0:
            flow = self.fabric.start_transfer(
                host, self.host, response.body_bytes, name=f"http:{path}:resp")
            yield flow.done
        return response

    def get(self, host: str, port: int, path: str, **kw):
        return self.request("GET", host, port, path, **kw)

    def post(self, host: str, port: int, path: str, **kw):
        return self.request("POST", host, port, path, **kw)


def _invoke(kernel: SimKernel, service: HttpService,
            request: HttpRequest) -> Generator[Any, Any, HttpResponse]:
    """Run a handler, which may be sync or a generator process."""
    try:
        result = service.handler(request)
    except APIError as exc:
        return HttpResponse(status=exc.status, json={"error": exc.message})
    if inspect.isgenerator(result):
        try:
            result = yield from result
        except APIError as exc:
            return HttpResponse(status=exc.status, json={"error": exc.message})
    if not isinstance(result, HttpResponse):
        raise ConfigurationError(
            f"handler for {service.name} returned {type(result).__name__}, "
            "expected HttpResponse")
    return result


def forwarding_handler(fabric: Fabric, via_host: str, target_host: str,
                       target_port: int) -> Handler:
    """A handler that proxies requests onward (NGINX / tunnel hop).

    The onward request originates from ``via_host`` — which is the point:
    the proxy host *can* reach cluster-internal targets that external
    clients cannot.
    """
    client = HttpClient(fabric, via_host)

    def handler(request: HttpRequest):
        response = yield from client.request(
            request.method, target_host, target_port, request.path,
            json=request.json, headers=request.headers,
            body_bytes=request.body_bytes)
        return response

    return handler
