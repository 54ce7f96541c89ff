"""A LiteLLM-like router: one OpenAI endpoint fanning out to backends.

The paper notes users can recreate Kubernetes-style resilience on HPC
platforms "with techniques like using cron jobs and deploying their own
request routers" — this is that router: it health-checks its backends and
fails over, giving HPC deployments K8s-like behavior.
"""

from __future__ import annotations

import dataclasses
import json
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum

from ..containers.image import (ExecutionExpectations, ImageManifest,
                                make_layers, register_app)
from ..containers.runtime import ContainerApp, ContainerContext
from ..errors import (APIError, ConfigurationError, NetworkUnreachable,
                      ReproError)
from ..net.http import HttpClient, HttpResponse, HttpService
from ..obs.profile import profiler
from ..units import MiB
from ..vllm.server import VllmOpenAIServer
from ..vllm.spec import CompletionCall, CompletionResult


def router_image(tag: str = "main") -> ImageManifest:
    return ImageManifest(
        repository="berriai/litellm", tag=tag,
        layers=make_layers(f"litellm:{tag}", 600 * MiB, count=4),
        app="llm-router",
        expectations=ExecutionExpectations(host_network=True),
        entrypoint="litellm")


class RouterPolicy(str, Enum):
    """Load-balancing policies the router understands.

    Configs carry the enum, so an unknown policy fails where the
    config is *built* (a ScenarioSpec, a FleetConfig) instead of at
    container start deep inside a scenario.
    """

    ROUND_ROBIN = "round-robin"
    LEAST_OUTSTANDING = "least-outstanding"
    CACHE_AFFINITY = "cache-affinity"

    @classmethod
    def coerce(cls, value: RouterPolicy | str) -> RouterPolicy:
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            raise ConfigurationError(
                f"unknown router policy {value!r} "
                f"(choices: {', '.join(p.value for p in cls)})") from None


@dataclass(frozen=True)
class RouterConfig:
    """Typed router configuration (policy, port, dispatch mode).

    Travels to the container as one ``ROUTER_CONFIG`` JSON env var.

    ``disagg`` switches the dispatcher to disaggregated serving: a
    completion request is routed twice — its prefill leg to a backend
    of role ``prefill``, then its decode leg (carrying the KV handoff)
    to a backend of role ``decode`` — and the two responses are merged.
    """

    policy: RouterPolicy = RouterPolicy.ROUND_ROBIN
    port: int = 4000
    disagg: bool = False

    def __post_init__(self):
        object.__setattr__(self, "policy", RouterPolicy.coerce(self.policy))
        if not (0 < self.port < 65536):
            raise ConfigurationError(f"bad router port {self.port}")

    def to_env(self) -> dict[str, str]:
        """Render as container env (the one ``ROUTER_CONFIG`` var)."""
        return {"ROUTER_CONFIG": json.dumps(
            {"policy": self.policy.value, "port": self.port,
             "disagg": self.disagg}, sort_keys=True)}

    @classmethod
    def from_env(cls, env: dict[str, str]) -> RouterConfig:
        """Parse container env (defaults when ``ROUTER_CONFIG`` is unset)."""
        raw = env.get("ROUTER_CONFIG")
        if not raw:
            return cls()
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"bad ROUTER_CONFIG JSON: {exc}") from exc
        return cls(policy=RouterPolicy.coerce(
            data.get("policy", RouterPolicy.ROUND_ROBIN)),
            port=int(data.get("port", 4000)),
            disagg=bool(data.get("disagg", False)))


@dataclass
class Backend:
    host: str
    port: int
    #: disaggregation role this backend serves (``unified`` backends
    #: take whole requests; ``prefill``/``decode`` take one leg each).
    role: str = "unified"
    healthy: bool = True
    consecutive_failures: int = 0
    outstanding: int = 0
    served: int = 0
    # Prefix-cache telemetry (session requests only, observed from the
    # ``repro_stats`` the vLLM backend attaches to each completion).
    sessions_assigned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cached_tokens: int = 0

    @property
    def key(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@register_app("llm-router")
class LlmRouter(ContainerApp):
    """Load balancing with failover across vLLM backends.

    Configured through a :class:`RouterConfig` (``ROUTER_CONFIG`` env
    JSON) plus ``BACKENDS`` =
    ``host1:port1[:role1],host2:port2[:role2],...``.  Policies:
    ``round-robin`` (default), ``least-outstanding``, or
    ``cache-affinity`` (session-sticky: requests carrying a
    ``repro_session`` key go to the backend holding that conversation's
    KV prefix, falling back to least-outstanding when the sticky
    backend is quarantined, removed, or the session is new;
    ``/router/cache`` exposes the per-backend prefix-cache telemetry).

    With ``disagg`` enabled, completion requests are dispatched in two
    legs — prefill-pool then decode-pool, the second carrying the KV
    handoff descriptor the prefill backend returned — and the policy
    picks *within* each role pool.

    Backends may also be added and removed at runtime — either through
    :meth:`add_backend` / :meth:`remove_backend` (control-plane handle,
    used by the fleet autoscaler) or the ``/router/backends`` admin route.
    """

    UNHEALTHY_AFTER = 2
    HEALTH_INTERVAL = 15.0
    POLICIES = tuple(p.value for p in RouterPolicy)
    #: Bound on remembered session -> backend stickiness entries; the
    #: oldest-touched mapping is dropped first (a re-routed session just
    #: warms a new backend's cache, so forgetting is safe).
    AFFINITY_CAP = 65536

    def __init__(self):
        self.backends: list[Backend] = []
        self.service: HttpService | None = None
        self.config = RouterConfig()
        self.failed_forwards = 0   # forward attempts that errored or 5xx'd
        self.retried_ok = 0        # requests that succeeded after a failover
        # Routing-pool epoch: bumped on every membership or health
        # transition.  The serving pools (one per role in play) and
        # rotation indices are cached per epoch, so the per-request
        # path allocates nothing and the rotation state is O(1) no
        # matter how much churn the pool sees (the old per-composition
        # counter table grew without bound under chaos
        # add/remove/quarantine cycles).
        self._epoch = 0
        self._cache_epoch = -1
        self._pools: dict[str, list[Backend]] = {}
        self._rr_idx: dict[str, int] = {}
        self._client: HttpClient | None = None
        self._kernel = None   # set at startup; None for bare (bench) use
        #: fleet fast-forward governor (duck-typed: ``next_tick``);
        #: installed by Fleet.run_scenario so provably-idle health passes
        #: are skipped like every other fleet loop's idle ticks.  None =
        #: always tick live.
        self.ff_governor = None
        # cache-affinity state: session key -> backend key, LRU-bounded.
        self._affinity: OrderedDict[str, str] = OrderedDict()
        self.affinity_reassignments = 0   # sticky target lost (evict/churn)

    @property
    def policy(self) -> str:
        """The active policy name (kept a string for stats/back-compat)."""
        return self.config.policy.value

    def startup(self, ctx: ContainerContext):
        ctx.check_expectations()
        from ..errors import ContainerCrash
        self._kernel = ctx.kernel
        self._register_obs()
        spec = ctx.env.get("BACKENDS", "")
        for entry in filter(None, spec.split(",")):
            parts = entry.split(":")
            host = parts[0]
            port = int(parts[1]) if len(parts) > 1 and parts[1] else 8000
            role = parts[2] if len(parts) > 2 and parts[2] else "unified"
            self.add_backend(host, port, role=role)
        if not self.backends:
            raise ContainerCrash("router: no BACKENDS configured",
                                 sim_time=ctx.kernel.now)
        try:
            self.config = RouterConfig.from_env(ctx.env)
        except ConfigurationError as exc:
            raise ContainerCrash(f"router: bad ROUTER_CONFIG: {exc}",
                                 sim_time=ctx.kernel.now) from exc
        self._client = HttpClient(ctx.fabric, ctx.hostname)
        self.service = HttpService(ctx.fabric, ctx.hostname,
                                   self.config.port, self._handle,
                                   name="litellm")
        yield ctx.kernel.timeout(3.0)

    def run(self, ctx: ContainerContext):
        # Periodic health checks run alongside request serving.  Under a
        # fleet fast-forward governor, passes over an all-healthy idle
        # pool are skipped: they write nothing observable, so their
        # closed-form body is empty, and the pass after them runs on
        # the stepped phase.
        while not ctx.stop_event.triggered:
            gov = self.ff_governor
            if gov is None:
                tick = ctx.kernel.timeout(self.HEALTH_INTERVAL)
            else:
                _, tick = gov.next_tick(self.HEALTH_INTERVAL,
                                        waits=self._health_pass_delays)
            yield ctx.kernel.any_of([ctx.stop_event, tick])
            if ctx.stop_event.triggered:
                return
            yield from self._health_pass()

    def shutdown(self, ctx: ContainerContext) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    # -- observability -------------------------------------------------------------

    def _register_obs(self) -> None:
        """Router-level series in the kernel registry (all callbacks)."""
        reg = self._kernel.obs.registry
        reg.gauge("router_backends_healthy",
                  "Healthy backends in the pool") \
            .labels().set_function(
                lambda: sum(b.healthy for b in self.backends))
        # The alerting-friendly complement: a nonzero value is a page
        # (a dead backend is operator-actionable regardless of whether
        # retries are still hiding it from the SLO window).
        reg.gauge("router_backends_unhealthy",
                  "Registered backends currently failing health checks") \
            .labels().set_function(
                lambda: sum(not b.healthy for b in self.backends))
        reg.gauge("router_outstanding",
                  "In-flight forwards across all backends") \
            .labels().set_function(
                lambda: sum(b.outstanding for b in self.backends))
        reg.gauge("router_failed_forwards_total",
                  "Forward attempts that errored or 5xx'd") \
            .labels().set_function(lambda: self.failed_forwards)
        reg.gauge("router_retried_ok_total",
                  "Requests saved by failover") \
            .labels().set_function(lambda: self.retried_ok)
        reg.gauge("router_sessions_tracked",
                  "Live session->backend affinity entries") \
            .labels().set_function(lambda: len(self._affinity))
        reg.gauge("router_affinity_reassignments_total",
                  "Sticky targets lost to eviction or churn") \
            .labels().set_function(lambda: self.affinity_reassignments)

    def _register_backend_obs(self, backend: Backend) -> None:
        """Per-backend series; the callbacks close over the Backend, so
        a removed backend keeps exporting its final values (stale-series
        semantics, same as a real scrape of a dead target)."""
        reg = self._kernel.obs.registry
        labels = ("backend",)
        key = {"backend": backend.key}
        for name, help_text, fn in (
            ("router_backend_healthy", "1 if routable",
             lambda b=backend: 1.0 if b.healthy else 0.0),
            ("router_backend_outstanding", "In-flight forwards",
             lambda b=backend: b.outstanding),
            ("router_backend_served_total", "Completed forwards",
             lambda b=backend: b.served),
            ("router_cache_hits_total", "Session turns with prefix reuse",
             lambda b=backend: b.cache_hits),
            ("router_cache_misses_total", "Session turns without reuse",
             lambda b=backend: b.cache_misses),
            ("router_cached_tokens_total", "Prompt tokens served from cache",
             lambda b=backend: b.cached_tokens),
            ("router_sessions_assigned_total", "Sessions stuck to backend",
             lambda b=backend: b.sessions_assigned),
        ):
            reg.gauge(name, help_text, labels=labels) \
                .labels(**key).set_function(fn)

    # -- health ---------------------------------------------------------------------

    def _health_pass(self):
        for backend in self.backends:
            try:
                response = yield from self._client.get(
                    backend.host, backend.port, "/health")
                ok = response.ok
            except (APIError, NetworkUnreachable, ReproError):
                ok = False
            if ok:
                if not backend.healthy:
                    backend.healthy = True
                    self._epoch += 1
                backend.consecutive_failures = 0
            else:
                self._note_failure(backend)

    def _health_pass_delays(self) -> list[float]:
        """The fabric latencies a pass over a reachable pool waits out,
        in :meth:`_health_pass` order: there and back per backend."""
        latency = self._client.fabric.latency
        me = self._client.host
        delays = []
        for backend in self.backends:
            delays += (latency(me, backend.host), latency(backend.host, me))
        return delays

    def _note_failure(self, backend: Backend) -> None:
        """One failed probe/forward; quarantines after UNHEALTHY_AFTER."""
        backend.consecutive_failures += 1
        if (backend.healthy
                and backend.consecutive_failures >= self.UNHEALTHY_AFTER):
            backend.healthy = False
            self._epoch += 1

    # -- dynamic membership (fleet control plane) ---------------------------------

    def add_backend(self, host: str, port: int,
                    role: str = "unified") -> Backend:
        """Register a backend; idempotent on (host, port)."""
        backend = self.find_backend(host, port)
        if backend is None:
            backend = Backend(host, int(port), role=role)
            self.backends.append(backend)
            self._epoch += 1
            if self._kernel is not None:
                self._register_backend_obs(backend)
        return backend

    def remove_backend(self, host: str, port: int) -> bool:
        """Deregister a backend; in-flight forwards to it complete."""
        backend = self.find_backend(host, port)
        if backend is None:
            return False
        self.backends.remove(backend)
        self._epoch += 1
        return True

    def find_backend(self, host: str, port: int) -> Backend | None:
        for backend in self.backends:
            if backend.host == host and backend.port == port:
                return backend
        return None

    def stats(self) -> dict:
        """Control-plane snapshot (the fleet autoscaler's load signal)."""
        return {
            "policy": self.policy,
            "backends": [{
                "host": b.host, "port": b.port, "role": b.role,
                "healthy": b.healthy,
                "outstanding": b.outstanding, "served": b.served,
            } for b in self.backends],
            "disagg": self.config.disagg,
            "healthy": sum(b.healthy for b in self.backends),
            "outstanding": sum(b.outstanding for b in self.backends),
            "failed_forwards": self.failed_forwards,
            "retried_ok": self.retried_ok,
            "sessions_tracked": len(self._affinity),
            "affinity_reassignments": self.affinity_reassignments,
        }

    def _cache_report(self):
        """Generator: per-backend prefix-cache stats for /router/cache.

        The router-side view (hits/misses/cached tokens it observed on
        forwarded session turns) is joined with each live backend's own
        ``/metrics`` prefix-cache gauges (resident blocks, evictions) —
        unreachable backends simply report ``engine: null``.
        """
        backends = []
        for b in list(self.backends):
            row = {
                "backend": b.key,
                "healthy": b.healthy,
                "sessions_assigned": b.sessions_assigned,
                "hits": b.cache_hits,
                "misses": b.cache_misses,
                "hit_rate": round(b.cache_hit_rate, 4),
                "cached_tokens": b.cached_tokens,
                "engine": None,
            }
            try:
                response = yield from self._client.get(
                    b.host, b.port, "/metrics")
                if response.ok and isinstance(response.json, dict):
                    row["engine"] = response.json.get("prefix_cache")
            except (APIError, NetworkUnreachable, ReproError):
                pass
            backends.append(row)
        return HttpResponse(200, json={
            "policy": self.policy,
            "sessions_tracked": len(self._affinity),
            "affinity_reassignments": self.affinity_reassignments,
            "backends": backends,
        })

    # -- routing ----------------------------------------------------------------------

    def _serving_pool(self, role: str | None = None) -> list[Backend]:
        """The routable pool for ``role``, rebuilt when the epoch moved.

        Rebuilding resets the rotation index, so the rotation is always
        relative to the current pool composition — a single counter
        modulo a shrinking healthy pool would skew the rotation after
        failover (and after dynamic add/remove).  ``role=None`` is the
        unified pool (every backend); ``prefill``/``decode`` filter to
        that role — the disagg dispatch pools.
        """
        if self._cache_epoch != self._epoch:
            self._pools = {}
            self._rr_idx = {}
            self._cache_epoch = self._epoch
        key = role or "*"
        pool = self._pools.get(key)
        if pool is None:
            members = (self.backends if role is None
                       else [b for b in self.backends if b.role == role])
            healthy = [b for b in members if b.healthy]
            pool = healthy or members
            self._pools[key] = pool
            self._rr_idx[key] = 0
        return pool

    def _pick(self, session: str | None = None, role: str | None = None):
        """Yield backends in try-order for one request (or one leg).

        Lazy: the steady-state (first attempt succeeds) costs one index
        bump and zero allocations; the failover tail is only ordered
        when an attempt actually fails.

        Under ``cache-affinity`` a session's sticky backend — the one
        holding its KV prefix — is tried first as long as it is in the
        serving pool; otherwise (new session, quarantined or removed
        backend) the least-outstanding backend is chosen and becomes
        the new sticky target, and the failover tail proceeds by
        outstanding count.  The mapping to the backend that *actually
        served* is confirmed in :meth:`_note_session_result`.
        """
        pool = self._serving_pool(role)
        n = len(pool)
        if n == 0:
            return
        key = role or "*"
        idx = self._rr_idx[key]
        self._rr_idx[key] = idx + 1
        if self.policy == "cache-affinity" and session is not None:
            sticky = self._affinity.get(session)
            target = None
            if sticky is not None:
                for backend in pool:
                    if backend.key == sticky:
                        target = backend
                        break
                if target is None:
                    self.affinity_reassignments += 1
            if target is None:
                best = min(range(n),
                           key=lambda i: pool[(idx + i) % n].outstanding)
                target = pool[(idx + best) % n]
                self._remember(session, target)
            else:
                self._affinity.move_to_end(session)
            yield target
            rest = sorted((b for b in pool if b is not target),
                          key=lambda b: b.outstanding)
            yield from rest
            return
        if self.policy != "least-outstanding":
            for i in range(n):
                yield pool[(idx + i) % n]
            return
        # Least-outstanding: min scan with the rotation breaking ties
        # fairly; the (rare) failover tail re-ranks with fresh counts.
        best = min(range(n), key=lambda i: pool[(idx + i) % n].outstanding)
        yield pool[(idx + best) % n]
        rest = sorted((i for i in range(n) if i != best),
                      key=lambda i: pool[(idx + i) % n].outstanding)
        for i in rest:
            yield pool[(idx + i) % n]

    def _remember(self, session: str, backend: Backend) -> None:
        if self._affinity.get(session) != backend.key:
            # Counts first placements AND reassignments: the telemetry
            # answers "how many sessions landed on this backend".
            backend.sessions_assigned += 1
        self._affinity[session] = backend.key
        self._affinity.move_to_end(session)
        while len(self._affinity) > self.AFFINITY_CAP:
            self._affinity.popitem(last=False)

    def _note_session_result(self, session: str | None, backend: Backend,
                             result: CompletionResult) -> None:
        """Confirm stickiness + record cache telemetry after a success."""
        if session is None:
            return
        if self._affinity.get(session) != backend.key:
            # A failover landed the turn elsewhere: that backend now
            # holds the freshest context blocks, so stick to it.
            self._remember(session, backend)
        if result.cached_tokens > 0:
            backend.cache_hits += 1
            backend.cached_tokens += result.cached_tokens
        else:
            backend.cache_misses += 1

    def _handle(self, request):
        """HTTP edge: admin routes, and JSON onto :meth:`route`."""
        if request.path == "/router/cache" and request.method == "GET":
            response = yield from self._cache_report()
            return response
        if request.path.startswith("/router/"):
            return self._handle_admin(request)
        result = yield from self.route(CompletionCall.from_http(request))
        return result.to_response()

    def route(self, call: CompletionCall):
        """Generator: route one call to the pool; returns its result.

        Picks a backend by policy, fails over (quarantining backends
        that error or answer 5xx), keeps session affinity, and under
        ``disagg`` dispatches the prefill and decode legs.  The route
        span is reserved up front (failed hops parent their ``attempt``
        children to it) and emitted closed when the call resolves.
        ``rec`` is None when tracing is off (or the router runs bare in
        a bench): every span line below gates on it.
        """
        if not self.backends:   # dynamic removal can empty the pool
            return CompletionResult.failed(503, "no backends")
        trace_id = call.trace_id
        rec = self._kernel.obs.spans if self._kernel is not None else None
        if rec is not None and not (rec.enabled and trace_id):
            rec = None
        route_sid = rec.reserve_span() if rec is not None else 0
        route_start = rec.kernel.now if rec is not None else 0.0
        if self.config.disagg and call.is_completion:
            result = yield from self._route_disagg(call, rec, route_sid,
                                                   route_start)
            return result
        result, backend, failed_attempts = yield from self._forward(
            call, call.session, None, rec, route_sid)
        if rec is not None:
            attrs = ({"backend": backend.key,
                      "attempts": failed_attempts + 1, "outcome": "ok"}
                     if backend is not None else
                     {"attempts": failed_attempts, "outcome": "failed"})
            rec.emit("route", trace_id, call.trace_parent or None,
                     route_start, rec.kernel.now, attrs, span_id=route_sid)
        return result or CompletionResult.failed(503, "no healthy backends")

    def _forward(self, call: CompletionCall, session: str | None,
                 role: str | None, rec, route_sid: int):
        """One routed leg with failover inside the ``role`` pool.

        Returns ``(result, backend, failed_attempts)``: ``backend`` is
        the one that served (None when every attempt failed, with
        ``result`` the last error or None for an empty pool).  A leg to
        a vLLM server is an in-process :meth:`VllmOpenAIServer.complete`
        between the fabric latencies an HTTP exchange pays; any other
        service bound at the backend's port gets the call over HTTP.
        """
        client = self._client
        kernel = client.fabric.kernel
        latency = client.fabric.latency
        last_error: CompletionResult | None = None
        failed_attempts = 0
        picker = self._pick(session=session, role=role)
        while True:
            if profiler.enabled:
                profiler.push("router.pick")
                try:
                    backend = next(picker, None)
                finally:
                    profiler.pop()
            else:
                backend = next(picker, None)
            if backend is None:
                break
            # Failed hops get their own "attempt" child spans below; the
            # common no-retry path just stamps the backend on the route
            # span (one span per request, not two).
            attempt_start = rec.kernel.now if rec is not None else 0.0
            host = backend.host
            backend.outstanding += 1
            try:
                server = client.preflight(host, backend.port).app
                if isinstance(server, VllmOpenAIServer) and call.is_completion:
                    yield kernel.timeout(latency(client.host, host))
                    result = yield from server.complete(call)
                    yield kernel.timeout(latency(host, client.host))
                else:
                    request = call.to_http()
                    response = yield from client.request(
                        request.method, host, backend.port, request.path,
                        json=request.json, headers=request.headers)
                    result = CompletionResult.from_response(response)
            except (APIError, NetworkUnreachable, ReproError) as exc:
                self._note_failure(backend)
                self.failed_forwards += 1
                failed_attempts += 1
                last_error = CompletionResult.failed(502, str(exc))
                if rec is not None:
                    rec.emit("attempt", call.trace_id, route_sid,
                             attempt_start, rec.kernel.now,
                             {"backend": backend.key, "outcome": "error"})
                continue
            finally:
                backend.outstanding -= 1
            if result.status >= 500:
                # Server errors count toward quarantine too: faster than
                # waiting out the periodic health pass, and it covers
                # backends whose health endpoint lies.
                self._note_failure(backend)
                self.failed_forwards += 1
                failed_attempts += 1
                last_error = result
                if rec is not None:
                    rec.emit("attempt", call.trace_id, route_sid,
                             attempt_start, rec.kernel.now,
                             {"backend": backend.key,
                              "outcome": f"http_{result.status}"})
                continue
            backend.consecutive_failures = 0
            backend.served += 1
            self._note_session_result(session, backend, result)
            if failed_attempts:
                # The request was saved by failover: retried, not lost.
                self.retried_ok += 1
            return result, backend, failed_attempts
        return last_error, None, failed_attempts

    def _route_disagg(self, call: CompletionCall, rec, route_sid: int,
                      route_start: float):
        """Disaggregated dispatch: prefill leg, then decode leg.

        The prefill backend runs the request to its first token and
        returns a :class:`KvHandoff` (source host, KV tokens); the
        decode leg carries it to a decode backend, which pays the KV
        transfer over the fabric and continues generation.  The merged
        result keeps the decode leg's usage (its token count spans the
        whole request) with TTFT and prefix-cache telemetry from the
        prefill leg.

        Session affinity applies to the prefill leg only — that is
        where the conversation's KV prefix lives; the decode pool is
        balanced purely by the policy.
        """
        trace_id, parent_id = call.trace_id, call.trace_parent or None
        pre, pre_backend, pre_failed = yield from self._forward(
            call, call.session, "prefill", rec, route_sid)
        attempts = pre_failed + (1 if pre_backend is not None else 0)
        served = pre_backend is not None and pre.ok
        handoff = pre.handoff if served else None
        if handoff is None:
            if rec is not None:
                rec.emit("route", trace_id, parent_id,
                         route_start, rec.kernel.now,
                         {"attempts": attempts, "path": "disagg",
                          "outcome": "failed", "leg": "prefill"},
                         span_id=route_sid)
            if not served:
                return pre or CompletionResult.failed(
                    503, "no prefill backends")
            # The backend is not actually a prefill engine (role
            # mislabeled); surface a clear dispatch error.
            return CompletionResult.failed(
                502, f"backend {pre_backend.key} returned no "
                     "repro_handoff; is it running with "
                     "--disagg-role prefill?")
        pre.response = None   # the merged reply is rendered, not relayed
        if handoff.generated >= call.max_tokens:
            # Single-token request: the prefill leg already finished it.
            if rec is not None:
                rec.emit("route", trace_id, parent_id,
                         route_start, rec.kernel.now,
                         {"prefill": pre_backend.key, "attempts": attempts,
                          "path": "disagg", "outcome": "ok"},
                         span_id=route_sid)
            pre.handoff = None
            return pre
        dec, dec_backend, dec_failed = yield from self._forward(
            dataclasses.replace(call, handoff=handoff), None, "decode", rec,
            route_sid)
        attempts += dec_failed + (1 if dec_backend is not None else 0)
        if dec_backend is None or not dec.ok:
            if rec is not None:
                rec.emit("route", trace_id, parent_id,
                         route_start, rec.kernel.now,
                         {"prefill": pre_backend.key, "attempts": attempts,
                          "path": "disagg", "outcome": "failed",
                          "leg": "decode"}, span_id=route_sid)
            return dec or CompletionResult.failed(503, "no decode backends")
        dec.response = None
        # TTFT is the prefill leg's: the client saw its first token when
        # the prefill engine produced it.
        dec.ttft = pre.ttft
        dec.latency = pre.latency + dec.kv_transfer_s + dec.latency
        dec.preemptions += pre.preemptions
        dec.cached_tokens = pre.cached_tokens
        dec.path = "disagg"
        if rec is not None:
            rec.emit("route", trace_id, parent_id,
                     route_start, rec.kernel.now,
                     {"prefill": pre_backend.key,
                      "decode": dec_backend.key,
                      "attempts": attempts, "path": "disagg",
                      "outcome": "ok"}, span_id=route_sid)
        return dec

    # -- admin API ---------------------------------------------------------------------

    def _handle_admin(self, request) -> HttpResponse:
        if request.path == "/router/metrics" and request.method == "GET":
            # The fleet-wide exposition: every series registered on this
            # kernel (engines included), same format as the vLLM
            # server's ``/metrics`` text view, same parser in tests.
            if self._kernel is None:
                return HttpResponse(503, json={"error": "router not started"})
            return HttpResponse(
                200, json=self._kernel.obs.registry.exposition(),
                headers={"content-type": "text/plain"})
        if request.path == "/router/stats" and request.method == "GET":
            accept = request.header("accept", "") or ""
            if accept.startswith("text/plain") and self._kernel is not None:
                # The router's slice of the registry (router_* families,
                # per-backend series included).
                text = self._kernel.obs.registry.exposition(prefix="router_")
                return HttpResponse(200, json=text,
                                    headers={"content-type": "text/plain"})
            return HttpResponse(200, json=self.stats())
        if request.path == "/router/backends":
            if request.method == "GET":
                return HttpResponse(200, json={
                    "backends": [b.key for b in self.backends]})
            body = request.json or {}
            op = body.get("op")
            host = body.get("host")
            try:
                port = int(body.get("port", 8000))
            except (TypeError, ValueError):
                return HttpResponse(400, json={
                    "error": f"port must be an integer, "
                             f"got {body.get('port')!r}"})
            if not host or op not in ("add", "remove"):
                return HttpResponse(400, json={
                    "error": "need op=add|remove and host[, port]"})
            if op == "add":
                role = str(body.get("role") or "unified")
                if role not in ("unified", "prefill", "decode"):
                    return HttpResponse(400, json={
                        "error": f"unknown role {role!r}"})
                self.add_backend(host, port, role=role)
                return HttpResponse(200, json={"added": f"{host}:{port}",
                                               "role": role})
            removed = self.remove_backend(host, port)
            return HttpResponse(200 if removed else 404,
                                json={"removed": removed})
        return HttpResponse(404, json={
            "error": f"no admin route {request.path}"})
