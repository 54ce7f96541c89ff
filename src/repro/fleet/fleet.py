"""The Fleet: router + elastic vLLM replicas + SLO tracking, one handle.

A :class:`Fleet` ties together everything a production serving operator
runs: N vLLM replicas deployed through the unified
:class:`~repro.core.deployer.Deployer` (so replicas can land on Slurm,
Flux, or OpenShift platforms interchangeably), one
:class:`~repro.services.router.LlmRouter` in front of them, an
:class:`~repro.fleet.autoscaler.Autoscaler` converging replica count to
load, and a :class:`~repro.fleet.slo.SloTracker` scoring every request
against the fleet's SLO.

``run_scenario()`` is the entry point: feed it an arrival schedule and a
tenant mix and it plays open-loop traffic against the fleet, autoscaling
as the day unfolds, and returns a :class:`FleetReport` scorecard.

Kubernetes replicas are registered with the router by their *pod node*
endpoint rather than the cluster ingress: every Helm release shares one
ingress frontend, and the router — living inside the site — can reach pod
hosts directly (the converged-site advantage the paper describes).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..cluster.platform import HPCPlatform, K8sPlatform
from ..containers.runtime import Container, RunOpts
from ..core.deployer import Deployment
from ..core.workflow import CaseStudyWorkflow
from ..errors import (APIError, ConfigurationError, NetworkUnreachable,
                      ReproError, StateError)
from ..k8s.objects import PodPhase
from ..net.http import HttpClient, lookup
from ..obs.alerts import AlertEvaluator, default_slo_rules
from ..obs.critical_path import CriticalPathAnalyzer
from ..obs.scrape import MetricsScraper
from ..services.router import (LlmRouter, RouterConfig, RouterPolicy,
                               router_image)
from ..vllm.spec import CompletionCall
from .autoscaler import Autoscaler, AutoscalerConfig, ScaleEvent
from .slo import RequestRecord, SloSnapshot, SloSpec, SloTracker
from .traffic import ArrivalSchedule, TenantMix, TrafficGenerator

if TYPE_CHECKING:  # pragma: no cover
    from ..core.site import ConvergedSite
    from ..hardware.node import Node
    from ..sessions import SessionSpec
    from ..simkernel import Event, Timeout

#: Simulated seconds between SLO monitor rows (``FleetReport.snapshots``).
SNAPSHOT_INTERVAL = 120.0
#: Scenario-end settle budget: how long in-flight requests may drain.
DRAIN_TIMEOUT = 1800.0


@dataclass(frozen=True)
class DisaggSpec:
    """Disaggregated prefill/decode serving shape for a fleet.

    When ``enabled``, the fleet runs two replica pools: a fixed pool of
    ``prefill_replicas`` engines in role ``prefill`` and an elastic
    decode pool (sized by ``Fleet.start(initial_replicas)`` and scaled
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


@dataclass(frozen=True)
class FleetConfig:
    """What to serve, where replicas may land, and how hard to defend SLOs."""

    model: str
    tensor_parallel_size: int = 2
    platforms: tuple[str, ...] = ("hops",)
    router_platform: str = "hops"
    router_port: int = 4000
    policy: str = "least-outstanding"
    slo: SloSpec = field(default_factory=SloSpec)
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    client_host: str = ""            # default: router platform service host
    #: extra ``vllm serve`` parameters applied to every replica deploy
    #: (e.g. ``{"enable_prefix_caching": True}`` for session fleets, or
    #: ``gpu_memory_utilization`` to sweep the KV-cache size).
    engine_params: dict = field(default_factory=dict)
    #: record per-request span trees during scenarios (arrive → route →
    #: queue/prefill/decode); digest lands in ``FleetReport.obs``.
    obs_spans: bool = True
    #: simulated seconds between metrics scrapes (0 disables the
    #: scraper).  Each scrape is followed by an evaluation of the stock
    #: :func:`~repro.obs.alerts.default_slo_rules`; the firing timeline
    #: and its digest land in ``FleetReport.obs``.
    scrape_interval: float = 300.0
    #: build the end-of-run ``FleetReport.obs`` block (series counts,
    #: span/metrics/scrape digests).  Off, recording still happens but
    #: the one-shot reporting pass is skipped — overhead benches use
    #: this to time the serving day alone.
    obs_report: bool = True
    #: disaggregated prefill/decode serving (off by default: every
    #: replica is a unified engine serving whole requests).
    disagg: DisaggSpec = field(default_factory=DisaggSpec)
    #: fleet quiet-play: while the fleet is provably idle, the periodic
    #: loops (autoscaler, SLO monitor, telemetry, router health checks)
    #: skip their ticks through one governor, :class:`FleetFastForward`.
    #: Bit-identical to stepping (see docs/performance.md); off under
    #: chaos, armed fault plans, and session traffic.  False makes
    #: every loop step.
    fast_forward: bool = True

    def __post_init__(self):
        # Fail on an unknown policy where the config is built, not at
        # router-container start deep inside a scenario.
        RouterPolicy.coerce(self.policy)


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


@dataclass(frozen=True)
class TurnResult:
    """What one request (or session turn) looked like to its caller."""

    ok: bool
    ttft: float = 0.0
    latency: float = 0.0
    output_tokens: int = 0
    cached_tokens: int = 0
    error: str = ""


@dataclass
class FleetReport:
    """Scorecard of one scenario run."""

    label: str
    duration: float
    arrivals: int
    slo: object                      # SloReport
    scale_events: list[ScaleEvent]
    replica_timeline: list[tuple[float, int]]
    snapshots: list[dict] = field(default_factory=list)
    #: chaos-orchestrator resilience scorecard (None outside chaos runs)
    resilience: dict | None = None
    #: session-workload accounting (None for single-shot scenarios);
    #: when set, ``arrivals`` counts session *starts*, not requests.
    sessions: dict | None = None
    #: observability scorecard: span/metrics/scrape digests and counts
    #: (None when the scenario ran with observability fully off).
    obs: dict | None = None

    @property
    def peak_replicas(self) -> int:
        return max((n for _, n in self.replica_timeline), default=0)

    @property
    def final_replicas(self) -> int:
        return self.replica_timeline[-1][1] if self.replica_timeline else 0

    @property
    def replica_seconds(self) -> float:
        """Integral of replica count over the scenario: the cost metric.

        Campaign aggregates divide goodput by this to price resilience
        (how much extra capacity a chaos policy burns).
        """
        if not self.replica_timeline:
            return 0.0
        end = self.replica_timeline[0][0] + self.duration
        total = 0.0
        for i, (t, n) in enumerate(self.replica_timeline):
            t_next = (self.replica_timeline[i + 1][0]
                      if i + 1 < len(self.replica_timeline) else end)
            total += n * max(0.0, min(t_next, end) - t)
        return total

    def summary(self) -> str:
        hours = self.duration / 3600.0
        lines = [f"fleet scenario {self.label!r}: {self.arrivals} arrivals "
                 f"over {hours:.1f} h, replicas peak={self.peak_replicas} "
                 f"final={self.final_replicas}",
                 self.slo.summary(),
                 "  scale events:"]
        if not self.scale_events:
            lines.append("    (none)")
        for event in self.scale_events:
            lines.append(
                f"    [{event.time / 3600.0:6.2f} h] {event.action:9s} "
                f"{event.replicas_before}->{event.replicas_after}  "
                f"({event.reason})")
        return "\n".join(lines)

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "duration_s": round(self.duration, 1),
            "arrivals": self.arrivals,
            "peak_replicas": self.peak_replicas,
            "final_replicas": self.final_replicas,
            "replica_seconds": round(self.replica_seconds, 1),
            "slo": self.slo.to_json(),
            "scale_events": [e.row() for e in self.scale_events],
            "replica_timeline": [(round(t, 1), n)
                                 for t, n in self.replica_timeline],
            "snapshots": self.snapshots,
        }
        if self.resilience is not None:
            out["resilience"] = self.resilience
        if self.sessions is not None:
            out["sessions"] = self.sessions
        if self.obs is not None:
            out["obs"] = self.obs
        return out


class FleetFastForward:
    """Governor for the fleet's quiet-play: skipping idle periodic ticks.

    Every periodic fleet loop — autoscaler, SLO monitor, telemetry,
    router health checks — waits for its next tick through
    :meth:`next_tick`.  While the fleet is provably idle (:meth:`quiet`),
    that call skips the loop's ticks strictly before one fleet-wide
    :meth:`edge` and wakes the loop on its first tick at or after it;
    otherwise it is a plain ``timeout(interval)``.  Tick times always
    follow the loop's own stepped float chain, so the live tick lands on
    the exact instant stepping would have run it.

    Everything here is advisory: with ``FleetConfig.fast_forward``
    False, under chaos, or for session traffic, every loop steps.
    """

    def __init__(self, fleet: Fleet):
        self.fleet = fleet
        self.kernel = fleet.kernel
        #: set by the chaos orchestrator before it drives scenarios;
        #: its faults act mid-window, which quiet-play must not race.
        self.chaos = False
        #: requests issued through :meth:`Fleet.request` (the one path)
        self.fast_requests = 0
        self._traffic: TrafficGenerator | None = None
        self._engines: dict | None = None
        self._engines_epoch = -1
        self._edge = -math.inf

    # -- scenario lifecycle ----------------------------------------------------

    def begin(self, traffic: TrafficGenerator | None) -> None:
        """Arm for one scenario (None = ineligible traffic kind)."""
        self._traffic = traffic
        self._engines_epoch = -1
        self._edge = -math.inf

    def end(self) -> None:
        self._traffic = None

    # -- eligibility -----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.fleet.config.fast_forward and not self.chaos

    def engines(self) -> dict | None:
        """(host, port) -> live LLMEngine behind each router backend.

        Cached per router pool epoch; returns None when any backend
        does not resolve to a vLLM engine (dead service, foreign app) —
        which simply disqualifies quiet-play.
        """
        router = self.fleet.router_app
        if router is None:
            return None
        if router._epoch != self._engines_epoch:
            fabric = self.fleet.site.fabric
            engines: dict | None = {}
            for b in router.backends:
                engine = getattr(getattr(lookup(fabric, b.host, b.port),
                                         "app", None), "engine", None)
                if engine is None:
                    engines = None
                    break
                engines[(b.host, b.port)] = engine
            self._engines = engines
            self._engines_epoch = router._epoch
        return self._engines

    def quiet(self) -> bool:
        """Is the fleet provably idle right now?

        True only when fast-forward is enabled and nothing is in flight
        anywhere — no open-loop request, no deploy, no scale action,
        every backend (prefill and decode ones included) healthy with
        zero outstanding forwards, every engine's queues empty and free
        of fault plans and crashes, and the SLO window drained empty —
        so the only upcoming events are periodic ticks and the next
        arrival.
        """
        if self._traffic is None or not self.enabled:
            return False
        engines = self.engines()
        if not engines:
            return False
        fleet = self.fleet
        if fleet.inflight or fleet._pending_nodes:
            return False
        if fleet.autoscaler._scaling or not fleet.slo.drained():
            return False
        for b in fleet.router_app.backends:
            if not b.healthy or b.outstanding or b.consecutive_failures:
                return False
        for engine in engines.values():
            if (engine.running or engine.waiting
                    or engine.fault_plan is not None
                    or engine.crashed is not None):
                return False
        return True

    # -- the one skip path ----------------------------------------------------

    def edge(self) -> float:
        """End of the current quiet window; ``-inf`` when there is none.

        The earliest of the next arrival and the autoscaler's next
        possible decision tick on its own chain.  It is worked out once,
        when a window opens, and shared by every loop until the clock
        reaches it, so no loop reads another's skipped-tick state.  With
        no arrival pending the window would be unbounded, so there is
        none and every loop ticks live.
        """
        if not self.quiet():
            self._edge = -math.inf
        elif self._edge <= self.kernel.now:
            traffic = self._traffic
            bound = traffic.next_arrival if traffic.active else math.inf
            self._edge = (-math.inf if math.isinf(bound) else min(
                bound, self.fleet.autoscaler.next_decision_tick(bound)))
        return self._edge

    def next_tick(self, interval: float,
                  waits: Callable[[], list[float]] | None = None
                  ) -> tuple[list[float], Timeout]:
        """Plan a periodic loop's wait for its next live tick.

        Returns the tick times skipped, for which the caller plays its
        closed-form idle tick body, and the timeout to wait on.  Tick
        times follow the loop's stepped chain from ``now``: a tick at
        ``t`` ends once the delays ``waits()`` lists have been added to
        ``t`` in order (none by default; called only when a skip is
        possible), and the next tick is ``end + interval``.  A tick is
        skipped only if it ends strictly before :meth:`edge`; the loop
        wakes, exactly, on the first tick that does not.
        """
        t = self.kernel.now + interval
        skipped: list[float] = []
        edge = self.edge()
        delays = waits() if waits is not None and t < edge else ()
        while t < edge:
            end = t
            for delay in delays:
                end += delay
            if end >= edge:
                break
            skipped.append(t)
            t = end + interval
        return skipped, self.kernel.at(t)


class Fleet:
    """Deployments + router + autoscaler + SLO tracker, one lifecycle."""

    def __init__(self, site: ConvergedSite, config: FleetConfig):
        self.site = site
        self.config = config
        self.kernel = site.kernel
        self.wf = CaseStudyWorkflow(site)
        self.slo = SloTracker(site.kernel, config.slo)
        self.autoscaler = Autoscaler(self, config.autoscaler)
        self.ff = FleetFastForward(self)
        self.replicas: list[Replica] = []
        self.placements: list[tuple[str, str]] = []  # (replica, platform)
        self.replica_timeline: list[tuple[float, int]] = []
        self.snapshots: list[dict] = []
        self.inflight = 0
        self.router_container: Container | None = None
        self.router_app: LlmRouter | None = None
        self.router_host: str = ""
        self._next_id = 0
        self._next_platform = 0
        self._pending_nodes: set[str] = set()  # HPC deploys in flight
        self._client: HttpClient | None = None
        self._seeded = False
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

    def start(self, initial_replicas: int = 1):
        """Generator: seed artifacts, deploy replicas, start the router.

        Under a disagg config ``initial_replicas`` sizes the *decode*
        pool; the prefill pool is ``config.disagg.prefill_replicas``.
        """
        self._seed()
        if self.config.disagg.enabled:
            yield from self.add_replicas(
                self.config.disagg.prefill_replicas, role="prefill")
            yield from self.add_replicas(initial_replicas, role="decode")
        else:
            yield from self.add_replicas(initial_replicas)
        yield from self._start_router()
        client_host = (self.config.client_host
                       or self._router_platform().service_host)
        self._client = HttpClient(self.site.fabric, client_host)
        self.kernel.trace.emit(
            "fleet.started", replicas=len(self.replicas),
            router=f"{self.router_host}:{self.config.router_port}")

    def _router_platform(self) -> HPCPlatform:
        platform = self.site.platform(self.config.router_platform)
        if not isinstance(platform, HPCPlatform):
            raise StateError("the router runs podman-side; pick an HPC "
                             f"platform, not {self.config.router_platform!r}")
        return platform

    def _seed(self) -> None:
        if self._seeded:
            return
        self.site.gitlab.seed(router_image())
        seeded_s3 = False
        for name in self.config.platforms:
            platform = self.site.platform(name)
            if isinstance(platform, HPCPlatform):
                self.wf.admin_seed_model(self.config.model, name)
            elif not seeded_s3:
                self.wf.admin_seed_s3(self.config.model)
                seeded_s3 = True
        self._seeded = True

    def _start_router(self):
        platform = self._router_platform()
        node = self._router_node(platform)
        backends = ",".join(f"{r.backend_host}:{r.backend_port}:{r.role}"
                            for r in self.replicas)
        router_config = RouterConfig(policy=self.config.policy,
                                     port=self.config.router_port,
                                     disagg=self.config.disagg.enabled)
        opts = RunOpts(name="llm-router", network_host=True,
                       env={"BACKENDS": backends,
                            **router_config.to_env()})
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
            if node.up and lookup(self.site.fabric, node.hostname,
                                  self.config.router_port) is None:
                return node
        raise StateError(f"no node on {platform.name!r} can host the router")

    # -- capacity ---------------------------------------------------------------

    def _free_slots(self, platform) -> int:
        tp = self.config.tensor_parallel_size
        if isinstance(platform, HPCPlatform):
            slots = 0
            for node in platform.nodes:
                if not node.up or node.gpus_free < tp:
                    continue
                port_busy = lookup(self.site.fabric, node.hostname,
                                   self.wf.package.service_port) is not None
                slots += 0 if port_busy else 1
            return slots
        committed: dict[str, int] = {}
        for pod in platform.cluster.api.list("Pod"):
            if pod.deleted or pod.node_name is None:
                continue
            committed[pod.node_name] = (committed.get(pod.node_name, 0)
                                        + pod.spec.total_gpus)
        return sum(
            1 for kn in platform.cluster.nodes
            if kn.node.up and
            kn.node.available_gpu_count
            - committed.get(kn.node.hostname, 0) >= tp)

    def _next_platform_with_capacity(self, reserved: dict[str, int]
                                     | None = None):
        """Next placement target, discounting slots already promised to
        other replicas of the same batch (``reserved``)."""
        names = self.config.platforms
        reserved = reserved or {}
        for offset in range(len(names)):
            name = names[(self._next_platform + offset) % len(names)]
            platform = self.site.platform(name)
            if self._free_slots(platform) - reserved.get(name, 0) > 0:
                self._next_platform = (self._next_platform + offset + 1) \
                    % len(names)
                return platform
        raise StateError(
            f"no capacity left on any of {list(names)} for "
            f"tp={self.config.tensor_parallel_size}")

    # -- replica lifecycle ------------------------------------------------------

    def add_replicas(self, count: int,
                     role: str | None = None) -> list[Replica]:
        """Generator: deploy ``count`` replicas concurrently; returns them.

        Placement for the whole batch is resolved against *remaining*
        capacity before anything is spawned (overcommitting a platform
        raises a clean StateError with nothing deployed), and every
        deploy settles — successes are tracked and registered even when
        a sibling fails mid-flight, so no replica can leak untracked.

        ``role`` defaults to ``decode`` under a disagg config (growth
        means decode capacity) and ``unified`` otherwise, so the
        autoscaler needs no disagg awareness.
        """
        kernel = self.kernel
        if role is None:
            role = "decode" if self.config.disagg.enabled else "unified"
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
                    platform,
                    {"tensor_parallel_size":
                     self.config.tensor_parallel_size},
                    service_port=self.wf.package.service_port,
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
        extra = {**self.config.engine_params, "name": name}
        if role != "unified":
            extra["disagg_role"] = role
        deployment = yield from self.wf.deploy_model(
            platform.name, self.config.model,
            tensor_parallel_size=self.config.tensor_parallel_size,
            node=node, extra_params=extra)
        if isinstance(platform, K8sPlatform):
            host, port = self._k8s_backend(platform, name)
        else:
            host, port = deployment.endpoint
        return Replica(name=name, platform_name=platform.name,
                       deployment=deployment, backend_host=host,
                       backend_port=port, role=role)

    def _k8s_backend(self, platform: K8sPlatform,
                     release_name: str) -> tuple[str, int]:
        for pod in platform.cluster.api.list("Pod"):
            if (pod.meta.labels.get("app") == release_name
                    and pod.phase is PodPhase.RUNNING and pod.ready):
                return pod.node_name, self.wf.package.service_port
        raise StateError(f"no ready pod for release {release_name!r}")

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
        pods = [p for p in platform.cluster.api.list("Pod")
                if p.meta.labels.get("app") == replica.name and not p.deleted]
        ready = [p for p in pods
                 if p.phase is PodPhase.RUNNING and p.ready]
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
        at one replica (never scale to zero).  Under a disagg config
        only the decode pool shrinks — the prefill pool is fixed
        provisioning, so scale-down refuses prefill replicas and keeps
        at least one decode replica.
        """
        if self.config.disagg.enabled:
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
            yield kernel.timeout(5.0)
        replica.deployment.stop()
        self.replica_timeline.append((kernel.now, len(self.replicas)))
        return replica

    # -- traffic ----------------------------------------------------------------

    def submit(self, tenant: str, sample) -> None:
        """Open-loop entry: fire one request worker and return immediately."""
        self.inflight += 1
        self.kernel.spawn(self._request_fast(tenant, sample),
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
        prefix-cache telemetry when ``session`` is set — and returns a
        :class:`TurnResult` the session can grow its context from.
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
        # prefill/decode) attach their spans to the same tree.  Reserved
        # here, emitted closed at completion; ids are (0, 0) when
        # recording is off.
        spans = kernel.obs.spans
        trace_id, root_sid = spans.reserve_trace()
        call = CompletionCall(
            prompt_tokens=prompt_tokens, max_tokens=output_tokens,
            model=self.config.model, session=session, priority=priority,
            trace_id=trace_id, trace_parent=root_sid)
        client, router_host = self._client, self.router_host
        latency = self.site.fabric.latency
        try:
            client.preflight(router_host, self.config.router_port)
            yield kernel.timeout(latency(client.host, router_host))
            result = yield from self.router_app.route(call)
            yield kernel.timeout(latency(router_host, client.host))
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
        if trace_id:
            attrs = {"tenant": tenant, "ok": ok, "output_tokens": out_tokens}
            if turn:
                attrs["turn"] = turn
            spans.emit("request", trace_id, None, submitted, kernel.now,
                       attrs, span_id=root_sid)
        self.slo.observe(RequestRecord(
            tenant=tenant, submitted=submitted, completed=kernel.now,
            ttft=ttft, latency=kernel.now - submitted,
            prompt_tokens=prompt_tokens, output_tokens=out_tokens,
            ok=ok, error=error, session=session or "", turn=turn,
            cached_tokens=cached, path=path, kv_transfer_s=kv_transfer_s))
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
        return TurnResult(ok=ok, ttft=ttft, latency=kernel.now - submitted,
                          output_tokens=out_tokens, cached_tokens=cached,
                          error=error)

    # -- scenarios --------------------------------------------------------------

    def run_scenario(self, schedule: ArrivalSchedule, horizon: float,
                     mix: TenantMix | None = None, label: str = "scenario",
                     sessions: SessionSpec | None = None):
        """Generator: play ``horizon`` seconds of open-loop traffic.

        Starts the autoscaler, the SLO monitor and (with a scraper) the
        telemetry loop, waits for the arrival stream to end and in-flight
        requests to drain, then returns a :class:`FleetReport`.

        With a ``sessions`` spec the schedule emits *session starts*
        instead of single-shot requests: each start becomes a multi-turn
        conversation whose follow-up turns self-schedule closed-loop
        (serving latency + think time), carrying the session identity
        that keys the engines' prefix caches and the router's
        cache-affinity policy.
        """
        if self.router_app is None:
            raise StateError("call fleet.start() before run_scenario()")
        kernel = self.kernel
        if self._scenario_ran:
            # Fresh accounting per scenario; earlier FleetReports keep
            # their own (now detached) trackers and event lists.
            self.slo = SloTracker(kernel, self.config.slo)
            self.autoscaler.reset()
            self.snapshots = []
            self.replica_timeline = []
        self._scenario_ran = True
        from ..sessions import SessionTraffic
        if sessions is not None and sessions.enabled:
            traffic = SessionTraffic(kernel, schedule, sessions,
                                     self.request, mix=mix)
        else:
            mix = mix or TenantMix.single(kernel)
            traffic = TrafficGenerator(kernel, schedule, mix, self.submit)
        # Arm the fast-forward governor for open-loop traffic only:
        # session traffic keeps closed-loop think-time state the quiet
        # predicate does not model, so it always steps.
        self.ff.begin(traffic if isinstance(traffic, TrafficGenerator)
                      else None)
        self.router_app.ff_governor = self.ff
        if self.config.obs_spans:
            kernel.obs.enable_spans()
        stop = kernel.event()
        kernel.spawn(self.autoscaler.run(stop), name="fleet:autoscaler")
        kernel.spawn(self._monitor(stop), name="fleet:monitor")
        scraper = self.alerts = None
        if self.config.scrape_interval > 0 and kernel.obs.registry.enabled:
            scraper = MetricsScraper(kernel, kernel.obs.registry,
                                     self.config.scrape_interval)
            slo = self.config.slo
            self.alerts = AlertEvaluator(kernel, scraper, default_slo_rules(
                ttft_target=slo.ttft_target, e2e_target=slo.e2e_target,
                max_error_rate=slo.max_error_rate,
                percentile=slo.percentile, interval=scraper.interval,
                min_replicas=self.config.autoscaler.min_replicas))
            kernel.spawn(self._telemetry(stop, scraper, self.alerts),
                         name="fleet:telemetry")
        started = kernel.now
        self.replica_timeline.append((started, len(self.replicas)))
        try:
            arrivals = yield kernel.spawn(traffic.run(horizon),
                                          name="fleet:traffic")
            yield from self._drain()
        finally:
            self.ff.end()
        stop.succeed()
        self._record(self.slo.snapshot())
        obs = None
        if self.config.obs_report and (kernel.obs.registry.enabled
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
                    "scrapes": len(scraper.samples),
                    "digest": scraper.digest(),
                }
                obs["alerts"] = self.alerts.to_json()
            if kernel.obs.spans.enabled:
                obs["attribution"] = \
                    CriticalPathAnalyzer(kernel.obs.spans).report().to_json()
        return FleetReport(
            label=label, duration=kernel.now - started, arrivals=arrivals,
            slo=self.slo.report(),
            scale_events=list(self.autoscaler.events),
            replica_timeline=list(self.replica_timeline),
            snapshots=list(self.snapshots),
            sessions=(traffic.log.to_json()
                      if isinstance(traffic, SessionTraffic) else None),
            obs=obs)

    def _monitor(self, stop_event):
        kernel = self.kernel
        while not stop_event.triggered:
            skipped, tick = self.ff.next_tick(SNAPSHOT_INTERVAL)
            for t in skipped:
                # The drained SLO window makes the empty-window row exact.
                self._record(SloSnapshot(time=t, window=self.slo.spec.window))
            yield kernel.any_of([stop_event, tick])
            if stop_event.triggered:
                return
            self._record(self.slo.snapshot())

    def _telemetry(self, stop_event: Event, scraper: MetricsScraper,
                   alerts: AlertEvaluator):
        """Scrape, then evaluate the alert rules, every scrape interval.

        The first tick is live (its delta is the whole registry); later
        ones skip only from a live scrape.  No series reads the clock,
        so a skipped scrape is an empty delta, but alerts still evaluate
        at it: an absence rule's silence grows with the clock.
        """
        kernel = self.kernel
        skipped, tick = [], kernel.timeout(scraper.interval)
        while True:
            for t in skipped:
                scraper.scrape_idle(t)
                alerts.evaluate_at(t)
            yield kernel.any_of([stop_event, tick])
            if stop_event.triggered:
                return
            scraper.scrape_once()
            alerts.evaluate_at(kernel.now)
            skipped, tick = self.ff.next_tick(scraper.interval)

    def _record(self, snap: SloSnapshot) -> None:
        row = snap.row()
        row["replicas"] = len(self.replicas)
        self.snapshots.append(row)

    def _drain(self):
        kernel = self.kernel
        deadline = kernel.now + DRAIN_TIMEOUT
        while self.inflight > 0 and kernel.now < deadline:
            yield kernel.timeout(10.0)

    # -- teardown ---------------------------------------------------------------

    def shutdown(self) -> None:
        for replica in self.replicas:
            replica.deployment.stop()
        if self.router_container is not None \
                and self.router_container.running:
            self.router_container.stop()
