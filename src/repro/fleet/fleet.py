"""The Fleet: router + elastic vLLM replicas + SLO tracking, one handle.

A :class:`Fleet` ties together everything a production serving operator
runs: N vLLM replicas deployed through the unified
:class:`~repro.core.deployer.Deployer` (so replicas can land on Slurm,
Flux, or OpenShift platforms interchangeably), one
:class:`~repro.services.router.LlmRouter` in front of them, an
:class:`~repro.fleet.autoscaler.Autoscaler` converging replica count to
load, and a :class:`~repro.fleet.slo.SloTracker` scoring every request
against the fleet's SLO.

``Fleet(spec)``, ``start()``, ``run_scenario()`` is the whole run: the
:class:`~repro.campaign.spec.ScenarioSpec` says which site to build, how
many replicas to deploy, which arrival schedule and tenant mix to play
for how long, and whether arrivals open multi-turn sessions;
``run_scenario()`` plays that traffic against the fleet, autoscaling as
the day unfolds, and returns a :class:`FleetReport` scorecard.

Kubernetes replicas are registered with the router by their *pod node*
endpoint rather than the cluster ingress: every Helm release shares one
ingress frontend, and the router — living inside the site — can reach pod
hosts directly (the converged-site advantage the paper describes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..cluster.platform import HPCPlatform
from ..containers.runtime import Container, RunOpts
from ..core.deployer import Deployment
from ..core.workflow import CaseStudyWorkflow
from ..errors import (APIError, ConfigurationError, NetworkUnreachable,
                      ReproError, StateError)
from ..net.http import HttpClient
from ..obs.alerts import AlertEvaluator, default_slo_rules
from ..obs.critical_path import CriticalPathAnalyzer
from ..obs.scrape import MetricsScraper
from ..obs.spans import REQUEST, REQUEST_TURN
from ..services.router import LlmRouter, RouterConfig, router_image
from ..simkernel.ticks import TickLog, TickRun
from ..vllm.config import EngineArgs
from ..vllm.spec import CompletionCall
from .autoscaler import Autoscaler
from .governor import FleetFastForward
from .report import FleetReport
from .slo import RequestRecord, SloSnapshot, SloTracker
from .traffic import TenantMix, TrafficGenerator

if TYPE_CHECKING:  # pragma: no cover
    from ..campaign.spec import ScenarioSpec
    from ..chaos.supervisor import ReplicaSupervisor
    from ..hardware.node import Node
    from ..simkernel import Event

#: Simulated seconds between SLO monitor rows (``FleetReport.snapshots``).
SNAPSHOT_INTERVAL = 120.0
#: Scenario-end settle budget: how long in-flight requests may drain.
DRAIN_TIMEOUT = 1800.0


@dataclass(frozen=True)
class DisaggSpec:
    """Disaggregated prefill/decode serving shape for a fleet.

    When ``enabled``, the fleet runs two replica pools: a fixed pool of
    ``prefill_replicas`` engines in role ``prefill`` and an elastic
    decode pool (sized by the spec's ``initial_replicas`` and scaled
    by the autoscaler — decode capacity is what queues under load; the
    prefill pool is provisioned for the arrival rate up front).  The
    router dispatches each completion in two legs and the decode engine
    pays the KV handoff transfer over the fabric.
    """

    enabled: bool = False
    prefill_replicas: int = 1

    def __post_init__(self):
        if self.prefill_replicas < 1:
            raise ConfigurationError(
                "disagg needs at least one prefill replica")


@dataclass
class Replica:
    """One running vLLM backend owned by the fleet."""

    name: str
    platform_name: str
    deployment: Deployment
    backend_host: str
    backend_port: int
    #: disaggregation role the engine was deployed with (``unified``,
    #: ``prefill``, or ``decode``); mirrored to the router pool.
    role: str = "unified"

    @property
    def backend(self) -> tuple[str, int]:
        return self.backend_host, self.backend_port


class Fleet:
    """Deployments + router + autoscaler + SLO tracker, one lifecycle.

    ``spec`` is the fleet's one declaration: the site (``fleet.site``,
    built by ``spec.build_site()``), model, placement, initial replicas,
    router policy, SLO, autoscaler, scrape cadence, disagg shape,
    quiet-play (``fast_forward``) and engine knobs, the chaos
    supervisor's and probes' cadences, and the traffic a scenario plays
    (schedule, tenants, sessions, horizon, label) are all read from it.
    ``observability=False`` builds it dark: the kernel's observability
    is off before any series registers.  ``obs_report=False`` skips the
    end-of-run ``FleetReport.obs`` pass (recording still happens), so
    an overhead bench times the serving day alone.
    """

    def __init__(self, spec: ScenarioSpec, *, observability: bool = True,
                 obs_report: bool = True):
        self.site = site = spec.build_site()
        self.kernel = site.kernel
        if not observability:
            self.kernel.obs.disable()
        self.spec = spec
        self.obs_report = obs_report
        self.wf = CaseStudyWorkflow(site)
        self.router_config = RouterConfig(policy=spec.policy,
                                          disagg=spec.disagg.enabled)
        # Extra ``vllm serve`` parameters for every replica: knobs off
        # their ``EngineArgs`` default only, in this order, so the
        # rendered command (and every deployment artifact) stays
        # byte-stable for specs that do not touch them.
        self._engine_params: dict = {}
        if spec.sessions.enabled and spec.sessions.prefix_caching:
            self._engine_params["enable_prefix_caching"] = True
        for knob in ("gpu_memory_utilization", "scheduler_policy"):
            value = getattr(spec, knob)
            if value != getattr(EngineArgs, knob):
                self._engine_params[knob] = value
        self.slo = SloTracker(self.kernel, spec.slo)
        self.autoscaler = Autoscaler(self, spec.autoscaler)
        self.ff = FleetFastForward(self)
        #: chaos replica supervisor, if bound; a deficit bars quiet-play
        self.supervisor: ReplicaSupervisor | None = None
        self.replicas: list[Replica] = []
        self.placements: list[tuple[str, str]] = []  # (replica, platform)
        self.replica_timeline: list[tuple[float, int]] = []
        #: SLO monitor rows as stored: see :attr:`FleetReport.monitor`
        self.monitor: TickLog[dict] = TickLog()
        self.inflight = 0
        self.router_container: Container | None = None
        self.router_app: LlmRouter | None = None
        self.router_host: str = ""
        self._next_id = 0
        self._next_platform = 0
        self._pending_nodes: set[str] = set()  # HPC deploys in flight
        self._client: HttpClient | None = None
        self._scenario_ran = False
        #: alert evaluator of the current/last scenario (None when the
        #: scraper is off); chaos scoring reads its events.
        self.alerts: AlertEvaluator | None = None
        reg = self.kernel.obs.registry
        requests_total = reg.counter(
            "fleet_requests_total", "Requests issued through the router",
            labels=("outcome",))
        # Cached child handles: the per-request path increments a float,
        # never resolves a label set.
        self._c_req_ok = requests_total.labels(outcome="ok")
        self._c_req_err = requests_total.labels(outcome="error")
        reg.gauge("fleet_inflight", "Open-loop requests in flight") \
            .labels().set_function(lambda: self.inflight)
        reg.gauge("fleet_replicas", "Live vLLM replicas") \
            .labels().set_function(lambda: len(self.replicas))
        # Rolling-window SLO series, the raw material for the alert
        # rules.  All six share one snapshot per collection instant (a
        # scrape reads every gauge at the same kernel.now); snapshot()
        # itself only trims the window, which the next live observation
        # would do anyway, so scraping does not perturb the simulation.
        self._snap_cache: tuple[float, SloTracker, object] | None = None
        for name, help_text, fn in (
            ("fleet_slo_attainment", "Windowed fraction of good requests",
             lambda: self._slo_window().attainment),
            ("fleet_slo_error_rate", "Windowed error fraction",
             lambda: self._slo_window().error_rate),
            ("fleet_slo_ttft_p95_seconds", "Windowed p95 TTFT",
             lambda: self._slo_window().ttft_p95),
            ("fleet_slo_e2e_p95_seconds", "Windowed p95 E2E latency",
             lambda: self._slo_window().e2e_p95),
            ("fleet_slo_window_samples", "Requests in the SLO window",
             lambda: self._slo_window().samples),
            ("fleet_slo_met", "1 when the windowed SLO gate holds",
             lambda: float(self._slo_window().slo_met)),
        ):
            reg.gauge(name, help_text).labels().set_function(fn)

    def _slo_window(self):
        """The SLO snapshot at the current instant, computed once."""
        cache = self._snap_cache
        if (cache is None or cache[0] != self.kernel.now
                or cache[1] is not self.slo):
            cache = (self.kernel.now, self.slo, self.slo.snapshot())
            self._snap_cache = cache
        return cache[2]

    # -- bring-up ---------------------------------------------------------------

    def start(self):
        """Generator: seed artifacts, deploy ``spec.initial_replicas``
        replicas, start the router.

        Under a disagg spec ``initial_replicas`` sizes the *decode*
        pool; the prefill pool is ``spec.disagg.prefill_replicas``.
        """
        self.site.gitlab.seed(router_image())
        for name in self.spec.platforms:
            self.wf.admin_seed_model(self.spec.model, name)
        disagg = self.spec.disagg
        if disagg.enabled:
            yield from self.add_replicas(disagg.prefill_replicas,
                                         role="prefill")
        yield from self.add_replicas(self.spec.initial_replicas)
        yield from self._start_router()
        self._client = HttpClient(self.site.fabric,
                                  self._router_platform().service_host)
        self.kernel.trace.emit(
            "fleet.started", replicas=len(self.replicas),
            router=f"{self.router_host}:{self.router_config.port}")

    def _router_platform(self) -> HPCPlatform:
        # The spec admits only HPC router platforms.
        return self.site.platform(self.spec.router_platform)

    def _start_router(self):
        platform = self._router_platform()
        node = self._router_node(platform)
        backends = ",".join(f"{r.backend_host}:{r.backend_port}:{r.role}"
                            for r in self.replicas)
        opts = RunOpts(name="llm-router", network_host=True,
                       env={"BACKENDS": backends,
                            **self.router_config.to_env()})
        container = yield from platform.podman.run(
            node, router_image().ref, opts)
        yield container.ready
        self.router_container = container
        self.router_app = container.app
        self.router_host = node.hostname

    def _router_node(self, platform: HPCPlatform) -> Node:
        # Walk from the back so the deployer's front-first node preference
        # keeps GPU nodes clear of the router.
        for node in reversed(platform.nodes):
            if self.wf.deployer.fits(node, 0, self.router_config.port):
                return node
        raise StateError(f"no node on {platform.name!r} can host the router")

    # -- capacity ---------------------------------------------------------------

    def _next_platform_with_capacity(self, reserved: dict[str, int]
                                     | None = None):
        """Next placement target, discounting slots already promised to
        other replicas of the same batch (``reserved``)."""
        names = self.spec.platforms
        reserved = reserved or {}
        for offset in range(len(names)):
            name = names[(self._next_platform + offset) % len(names)]
            platform = self.site.platform(name)
            free = self.wf.deployer.free_slots(
                platform, self.spec.tensor_parallel_size,
                self.wf.package.service_port)
            if free - reserved.get(name, 0) > 0:
                self._next_platform = (self._next_platform + offset + 1) \
                    % len(names)
                return platform
        raise StateError(
            f"no capacity left on any of {list(names)} for "
            f"tp={self.spec.tensor_parallel_size}")

    # -- replica lifecycle ------------------------------------------------------

    def add_replicas(self, count: int,
                     role: str | None = None) -> list[Replica]:
        """Generator: deploy ``count`` replicas concurrently; returns them.

        Placement for the whole batch is resolved against *remaining*
        capacity before anything is spawned (overcommitting a platform
        raises a clean StateError with nothing deployed), and every
        deploy settles — successes are tracked and registered even when
        a sibling fails mid-flight, so no replica can leak untracked.

        ``role`` defaults to ``decode`` under a disagg spec (growth
        means decode capacity) and ``unified`` otherwise, so the
        autoscaler needs no disagg awareness.
        """
        kernel = self.kernel
        if role is None:
            role = "decode" if self.spec.disagg.enabled else "unified"
        placements: list[tuple[object, str, "Node | None"]] = []
        reserved: dict[str, int] = {}
        reserved_nodes: set[str] = set()
        for _ in range(count):
            platform = self._next_platform_with_capacity(reserved)
            reserved[platform.name] = reserved.get(platform.name, 0) + 1
            self._next_id += 1
            node = None
            if isinstance(platform, HPCPlatform):
                # Resolve concrete nodes up front so two deploys — same
                # batch or a concurrent batch (autoscaler + supervisor) —
                # cannot race onto one node's service port.
                node = self.wf.deployer.pick_node(
                    platform, self.spec.tensor_parallel_size,
                    self.wf.package.service_port,
                    exclude=reserved_nodes | self._pending_nodes)
                reserved_nodes.add(node.hostname)
            placements.append((platform, f"vllm-r{self._next_id}", node))
        self._pending_nodes |= reserved_nodes
        try:
            procs = [kernel.spawn(
                self._deploy_settled(platform, name, node, role),
                name=f"fleet:deploy:{name}")
                for platform, name, node in placements]
            yield kernel.all_of(procs)   # wrappers never fail the AllOf
        finally:
            self._pending_nodes -= reserved_nodes
        added, failures = [], []
        for proc in procs:
            if isinstance(proc.value, Replica):
                added.append(proc.value)
            else:
                failures.append(proc.value)
        for replica in added:
            self.replicas.append(replica)
            self.placements.append((replica.name, replica.platform_name))
            if self.router_app is not None:
                self.router_app.add_backend(*replica.backend,
                                            role=replica.role)
        self.replica_timeline.append((kernel.now, len(self.replicas)))
        if failures:
            raise StateError(
                f"{len(failures)}/{count} replica deploys failed "
                f"(first: {failures[0]}); {len(added)} added")
        return added

    def _deploy_settled(self, platform, name: str, node=None,
                        role: str = "unified"):
        """Generator: deploy one replica; returns it, or the error string."""
        try:
            replica = yield from self._deploy_replica(
                platform, name, node, role)
        except ReproError as exc:
            self.kernel.trace.emit("fleet.deploy_failed", replica=name,
                                   platform=platform.name, error=str(exc))
            return str(exc)
        return replica

    def _deploy_replica(self, platform, name: str, node=None,
                        role: str = "unified"):
        extra = {**self._engine_params, "name": name}
        if role != "unified":
            extra["disagg_role"] = role
        deployment = yield from self.wf.deploy_model(
            platform.name, self.spec.model,
            tensor_parallel_size=self.spec.tensor_parallel_size,
            node=node, extra_params=extra)
        return Replica(name, platform.name, deployment, *deployment.backend,
                       role=role)

    def replica_status(self, replica: Replica) -> tuple[str, str]:
        """Health of one replica: ``(state, detail)``.

        * ``"ok"`` — serving (container running / pod ready on the
          registered backend host);
        * ``"moved"`` — a K8s pod is ready but on a *different* node than
          the router knows (restarted elsewhere after eviction); detail
          is the new hostname;
        * ``"degraded"`` — pods exist but none is ready (CrashLoopBackOff,
          ImagePullBackOff, rescheduling in flight);
        * ``"dead"`` — nothing backs the replica anymore.
        """
        deployment = replica.deployment
        if deployment.container is not None:      # HPC replica
            if deployment.container.running:
                return "ok", ""
            return "dead", (f"container exited "
                            f"(code={deployment.container.exit_code})")
        platform = self.site.platform(replica.platform_name)
        pods = platform.cluster.api.list("Pod", selector={"app": replica.name})
        ready = [p for p in pods if p.serving]
        if ready:
            if ready[0].node_name != replica.backend_host:
                return "moved", ready[0].node_name
            return "ok", ""
        if pods:
            return "degraded", pods[0].message or pods[0].phase.value
        return "dead", "no pods left for release"

    def rebind_replica(self, replica: Replica, new_host: str) -> None:
        """Re-point the router at a replica whose pod moved nodes."""
        old = replica.backend
        replica.backend_host = new_host
        if self.router_app is not None:
            self.router_app.remove_backend(*old)
            self.router_app.add_backend(*replica.backend, role=replica.role)
        self.kernel.trace.emit("fleet.rebind", replica=replica.name,
                               old=f"{old[0]}:{old[1]}", new=new_host)

    def discard_replica(self, replica: Replica) -> None:
        """Deregister and stop a dead replica immediately (no drain)."""
        if replica in self.replicas:
            self.replicas.remove(replica)
            self.replica_timeline.append((self.kernel.now,
                                          len(self.replicas)))
        if self.router_app is not None:
            self.router_app.remove_backend(*replica.backend)
        replica.deployment.stop()
        self.kernel.trace.emit("fleet.discard", replica=replica.name)

    def replace_replica(self, replica: Replica):
        """Generator: discard a dead replica and deploy a successor.

        Raises :class:`StateError` when the successor cannot deploy (no
        capacity, registry outage) — the caller owns retry policy; the
        dead replica is deregistered either way.
        """
        self.discard_replica(replica)
        added = yield from self.add_replicas(1, role=replica.role)
        return added[0]

    def remove_replica(self, replica: Replica | None = None,
                       drain_timeout: float = 180.0):
        """Generator: deregister, drain in-flight work, stop the replica.

        Returns the removed replica, or ``None`` when the fleet is already
        at one replica (never scale to zero).  Under a disagg spec
        only the decode pool shrinks — the prefill pool is fixed
        provisioning, so scale-down refuses prefill replicas and keeps
        at least one decode replica.
        """
        if self.spec.disagg.enabled:
            pool = [r for r in self.replicas if r.role == "decode"]
            if len(pool) <= 1 or (replica is not None
                                  and replica.role != "decode"):
                return None
        else:
            pool = self.replicas
            if len(pool) <= 1:
                return None
        replica = replica or pool[-1]
        self.replicas.remove(replica)
        kernel = self.kernel
        backend = None
        if self.router_app is not None:
            backend = self.router_app.find_backend(*replica.backend)
            self.router_app.remove_backend(*replica.backend)
        deadline = kernel.now + drain_timeout
        while (backend is not None and backend.outstanding > 0
               and kernel.now < deadline):
            yield 5.0
        replica.deployment.stop()
        self.replica_timeline.append((kernel.now, len(self.replicas)))
        return replica

    # -- traffic ----------------------------------------------------------------

    def submit(self, tenant: str, sample) -> None:
        """Open-loop entry: fire one request worker and return immediately.

        The worker starts inline, inside the arrival's step: nothing
        waits on it, so it needs neither a boot event nor a completion
        entry (see :meth:`SimKernel.start`).
        """
        self.inflight += 1
        self.kernel.start(self._request_fast(tenant, sample),
                          name=f"fleet:req:{tenant}")

    def _request_fast(self, tenant: str, sample):
        """The open-loop worker: one :meth:`request`, then release its
        inflight slot (unconditionally, so a teardown interrupt cannot
        strand the drain loop on an elevated count)."""
        try:
            yield from self.request(tenant, sample.prompt_tokens,
                                    sample.output_tokens)
        finally:
            self.inflight -= 1

    def request(self, tenant: str, prompt_tokens: int, output_tokens: int,
                session: str | None = None, turn: int = 0,
                priority: int = 0):
        """Generator: one request through the router, fully accounted.

        The one per-request data path: open-loop arrivals (:meth:`submit`
        wraps it in a fire-and-forget worker) and session turns alike.
        The client -> router hop runs the HTTP client's reachability
        preflight and fabric latencies around an in-process
        :meth:`LlmRouter.route`, which owns picking, failover, affinity
        and disagg dispatch.  Observes the SLO tracker — with turn and
        prefix-cache telemetry when ``session`` is set — and returns the
        :class:`RequestRecord` it observed, which a session grows its
        context from.
        ``priority`` rides to the engine (meaningful under the
        ``priority`` scheduler policy).
        """
        kernel = self.kernel
        self.ff.fast_requests += 1
        self.slo.note_submitted()
        submitted = kernel.now
        ok, error, ttft, out_tokens, cached = False, "", 0.0, 0, 0
        path, kv_transfer_s = "unified", 0.0
        # Root span for the whole request; its trace id travels with
        # the call so the router (route/attempt) and engine (queue/
        # prefill/decode) attach their spans to the same tree.  Its ids
        # are minted here and it is emitted closed at completion; they
        # are (0, 0) when recording is off.
        spans = kernel.obs.spans
        trace_id, root_sid = spans.start_trace()
        call = CompletionCall(
            prompt_tokens=prompt_tokens, max_tokens=output_tokens,
            model=self.spec.model, session=session, priority=priority,
            trace_id=trace_id, trace_parent=root_sid)
        client, router_host = self._client, self.router_host
        latency = self.site.fabric.latency
        try:
            client.preflight(router_host, self.router_config.port)
            yield latency(client.host, router_host)
            result = yield from self.router_app.route(call)
            yield latency(router_host, client.host)
            ok = result.ok
            if ok:
                ttft = result.ttft
                cached = result.cached_tokens
                path = result.path
                kv_transfer_s = result.kv_transfer_s
                out_tokens = result.output_tokens
            else:
                error = str((result.status, result.error))
        except (APIError, NetworkUnreachable, ReproError) as exc:
            error = str(exc)
        if self.kernel.obs.registry.enabled:
            (self._c_req_ok if ok else self._c_req_err).inc()
        if trace_id and turn:
            spans.emit(REQUEST_TURN, trace_id, root_sid, 0, submitted,
                       kernel.now, tenant, ok, out_tokens, turn)
        elif trace_id:
            spans.emit(REQUEST, trace_id, root_sid, 0, submitted,
                       kernel.now, tenant, ok, out_tokens)
        # Positional, in field order: 14 keywords cost more than the
        # tuple itself (tests/fleet/test_slo.py pins the order).
        record = RequestRecord(
            tenant, submitted, kernel.now, ttft, kernel.now - submitted,
            prompt_tokens, out_tokens, ok, error, session or "", turn,
            cached, path, kv_transfer_s)
        self.slo.observe(record)
        # Request-level golden-trace record: the seed-sensitive part of
        # the day, so trace digests distinguish runs that differ only in
        # arrival randomness.  Session turns tag their turn index and
        # cache hit so session-day digests pin the reuse behavior too.
        kernel.trace.emit(
            "fleet.request", tenant=tenant, ok=ok,
            ttft=round(ttft, 6), latency=round(kernel.now - submitted, 6),
            output_tokens=out_tokens,
            **({"turn": turn, "cached_tokens": cached} if turn else {}),
            **({"path": path, "kv_transfer_s": round(kv_transfer_s, 6)}
               if path != "unified" else {}))
        return record

    # -- scenarios --------------------------------------------------------------

    def run_scenario(self):
        """Generator: play the spec's traffic for ``spec.horizon`` seconds.

        Builds ``spec.schedule`` and the tenant mix, starts the
        autoscaler, the SLO monitor and (with a scraper) the telemetry
        loop, waits for the arrival stream to end and in-flight requests
        to drain, then returns a :class:`FleetReport` labelled
        ``spec.name``.

        With ``spec.sessions`` enabled the schedule emits *session
        starts* instead of single-shot requests: each start becomes a
        multi-turn conversation whose follow-up turns self-schedule
        closed-loop (serving latency + think time), carrying the session
        identity that keys the engines' prefix caches and the router's
        cache-affinity policy.
        """
        if self.router_app is None:
            raise StateError("call fleet.start() before run_scenario()")
        kernel = self.kernel
        spec = self.spec
        if self._scenario_ran:
            # Fresh accounting per scenario; earlier FleetReports keep
            # their own (now detached) trackers and event lists.
            self.slo = SloTracker(kernel, spec.slo)
            self.autoscaler.reset()
            self.monitor = TickLog()
            self.replica_timeline = []
        self._scenario_ran = True
        from ..sessions import SessionTraffic
        schedule, mix = spec.schedule.build(), spec.build_mix(kernel)
        if spec.sessions.enabled:
            traffic = SessionTraffic(kernel, schedule, spec.sessions,
                                     self.request, mix=mix)
        else:
            traffic = TrafficGenerator(
                kernel, schedule, mix or TenantMix.single(kernel),
                self.submit)
        # No quiet window carries over between scenarios.
        self.ff._edge = -math.inf
        self.router_app.ff_governor = self.ff
        stop = kernel.event()
        kernel.spawn(self.autoscaler.run(stop), name="fleet:autoscaler")
        kernel.spawn(self._monitor(stop), name="fleet:monitor")
        scraper = self.alerts = None
        if spec.scrape_interval > 0 and kernel.obs.registry.enabled:
            scraper = MetricsScraper(kernel, kernel.obs.registry,
                                     spec.scrape_interval)
            slo = spec.slo
            self.alerts = AlertEvaluator(kernel, scraper, default_slo_rules(
                ttft_target=slo.ttft_target, e2e_target=slo.e2e_target,
                max_error_rate=slo.max_error_rate,
                percentile=slo.percentile, interval=scraper.interval,
                min_replicas=spec.autoscaler.min_replicas))
            kernel.spawn(self._telemetry(stop, scraper, self.alerts),
                         name="fleet:telemetry")
        started = kernel.now
        self.replica_timeline.append((started, len(self.replicas)))
        arrivals = yield kernel.spawn(traffic.run(spec.horizon),
                                      name="fleet:traffic")
        yield from self._drain()
        stop.succeed()
        self._record(self.slo.snapshot())
        obs = None
        if self.obs_report and (kernel.obs.registry.enabled
                                       or kernel.obs.spans.enabled):
            if scraper is not None:
                # Pin the end-of-run state, then close the loop on it:
                # breaches still live at the horizon fire/resolve
                # deterministically.
                scraper.scrape_once()
                self.alerts.evaluate_at(kernel.now)
            obs = kernel.obs.summary()
            if scraper is not None:
                obs["scrape"] = {
                    "interval": scraper.interval,
                    "scrapes": scraper.scrapes,
                    "digest": scraper.digest(),
                }
                obs["alerts"] = self.alerts.to_json()
            if kernel.obs.spans.enabled:
                obs["attribution"] = \
                    CriticalPathAnalyzer(kernel.obs.spans).report().to_json()
        return FleetReport(
            label=spec.name, duration=kernel.now - started,
            arrivals=arrivals,
            slo=self.slo.report(),
            scale_events=list(self.autoscaler.events),
            replica_timeline=list(self.replica_timeline),
            monitor=TickLog(self.monitor),
            sessions=(traffic.log.to_json()
                      if isinstance(traffic, SessionTraffic) else None),
            obs=obs)

    def _monitor(self, stop_event: Event):
        while (yield from self.ff.wait_tick(SNAPSHOT_INTERVAL, stop_event,
                                            idle=self._record_idle)):
            self._record(self.slo.snapshot())

    def _record_idle(self, ticks: TickRun) -> None:
        # The drained SLO window makes the empty-window row exact at
        # every tick of the quiet window.
        self._record(SloSnapshot(time=0.0, window=self.slo.spec.window), ticks)

    def _telemetry(self, stop_event: Event, scraper: MetricsScraper,
                   alerts: AlertEvaluator):
        """Scrape, then evaluate the alert rules, every scrape interval.

        The first tick is live (its delta is the whole registry); later
        ones skip only from a live scrape.  No series reads the clock,
        so a skipped scrape is an empty delta, but alerts still evaluate
        at it: an absence rule's silence grows with the clock.
        """
        kernel = self.kernel

        def idle(ticks: TickRun) -> None:
            scraper.scrape_idle(ticks)
            alerts.evaluate_idle(ticks)

        yield kernel.any_of([stop_event, kernel.timeout(scraper.interval)])
        while not stop_event.triggered:
            scraper.scrape_once()
            alerts.evaluate_at(kernel.now)
            yield from self.ff.wait_tick(scraper.interval, stop_event, idle)

    def _record(self, snap: SloSnapshot, ticks: TickRun | None = None) -> None:
        row = snap.row()
        row["replicas"] = len(self.replicas)
        self.monitor.append((row, ticks or TickRun(snap.time)))

    def _drain(self):
        kernel = self.kernel
        deadline = kernel.now + DRAIN_TIMEOUT
        while self.inflight > 0 and kernel.now < deadline:
            yield 10.0

    # -- teardown ---------------------------------------------------------------

    def shutdown(self) -> None:
        for replica in self.replicas:
            replica.deployment.stop()
        if self.router_container is not None \
                and self.router_container.running:
            self.router_container.stop()
