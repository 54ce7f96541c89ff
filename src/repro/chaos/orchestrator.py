"""The chaos orchestrator: schedule a fault, measure the recovery.

``run_case`` plays one scenario against a live fleet (a one-event plan
on the same run loop a multi-fault ``run_gameday`` uses): open-loop
traffic runs for the whole horizon, the fault injects at a scheduled
simulated time on the simkernel event loop, the
:class:`ReplicaSupervisor` and the fleet autoscaler react, and a probe
loop samples two booleans the whole time — *is the infrastructure
whole* (every replica serving, router pool fully healthy, no repair
deficit) and *is the SLO window met*.  The resilience report derives
from that probe timeline:

* **MTTR** — injection until the first probe after which both signals
  stay good through the end of the run (0 when the fault never registers,
  e.g. a latency spike the SLO absorbs);
* **requests lost vs retried** — SLO-tracker errors vs router requests
  that succeeded only after a failover;
* **first response** — the first supervisor repair or autoscaler action
  after injection.

Since PR 10 the probe ground truth is scored *next to* the telemetry
path an operator would actually have: when the fleet ran with its alert
evaluator on, ``detection_delay_alert_s`` measures injection to first
firing alert (``None`` = the rule set never noticed), false-positive
firings are counted, and the firing timeline merges with injections,
supervisor repairs, and scale actions into a deterministic
:class:`~repro.obs.incident.IncidentLog` on the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import StateError
from ..obs.incident import IncidentLog
from .scenarios import ChaosContext, ChaosScenario
from .supervisor import ReplicaSupervisor, SupervisorConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..fleet.fleet import Fleet, FleetReport
    from ..fleet.traffic import ArrivalSchedule, TenantMix
    from ..sessions import SessionSpec


@dataclass
class Probe:
    time: float
    infra_ok: bool
    slo_ok: bool

    @property
    def ok(self) -> bool:
        return self.infra_ok and self.slo_ok


@dataclass
class ResilienceReport:
    """Scorecard of one chaos case."""

    scenario: str
    layer: str
    platform: str
    injected_at: float
    detail: dict = field(default_factory=dict)
    detected_at: float | None = None
    recovered_at: float | None = None
    mttr_s: float | None = None
    first_response_s: float | None = None
    requests_lost: int = 0
    requests_retried: int = 0
    failed_forwards: int = 0
    repair_events: list[dict] = field(default_factory=list)
    recovery_ok: bool = False
    error: str | None = None
    #: telemetry-driven detection: injection to the first *firing*
    #: alert (None = no alert evaluator, or the rules never noticed —
    #: the rule-quality gap the probe ground truth exposes).
    detection_delay_alert_s: float | None = None
    alerts_fired: int = 0
    false_alerts: int = 0
    #: merged alert/injection/repair/scale timeline (IncidentLog JSON).
    incidents: dict | None = None

    def summary(self) -> str:
        state = "RECOVERED" if self.recovery_ok else "NOT RECOVERED"
        mttr = ("n/a" if self.mttr_s is None
                else f"{self.mttr_s:7.1f}s")
        detect = ("not detected" if self.detected_at is None
                  else f"detected +{self.detected_at - self.injected_at:.0f}s")
        alert = ("alert n/a" if self.incidents is None
                 else "alert silent" if self.detection_delay_alert_s is None
                 else f"alert +{self.detection_delay_alert_s:.0f}s")
        return (f"{self.scenario:18s} [{self.layer:9s}] on "
                f"{self.platform:8s}: {state} mttr={mttr} ({detect}, "
                f"{alert}), lost={self.requests_lost} "
                f"retried={self.requests_retried}")

    def to_json(self) -> dict:
        def r(value):
            return None if value is None else round(value, 1)
        return {
            "scenario": self.scenario,
            "layer": self.layer,
            "platform": self.platform,
            "injected_at_s": r(self.injected_at),
            "detail": self.detail,
            "detected_at_s": r(self.detected_at),
            "recovered_at_s": r(self.recovered_at),
            "mttr_s": r(self.mttr_s),
            "first_response_s": r(self.first_response_s),
            "detection_delay_alert_s": r(self.detection_delay_alert_s),
            "alerts_fired": self.alerts_fired,
            "false_alerts": self.false_alerts,
            "requests_lost": self.requests_lost,
            "requests_retried": self.requests_retried,
            "failed_forwards": self.failed_forwards,
            "repair_events": self.repair_events,
            "recovery_ok": self.recovery_ok,
            "error": self.error,
            **({"incidents": self.incidents}
               if self.incidents is not None else {}),
        }


class ChaosOrchestrator:
    """Binds a fleet to the supervisor, a probe loop, and fault plans."""

    def __init__(self, fleet: Fleet,
                 supervisor: SupervisorConfig | None = None,
                 probe_interval: float = 15.0):
        self.fleet = fleet
        self.kernel = fleet.kernel
        # Chaos faults such as fabric partitions and registry outages
        # are invisible to the quiet predicate, so an idle tick skipped
        # across one could miss its effect: disarm quiet-play for good
        # the moment a fleet is bound to an orchestrator.
        fleet.ff.chaos = True
        self.supervisor = ReplicaSupervisor(fleet, supervisor)
        self.probe_interval = probe_interval
        self.probes: list[Probe] = []
        self._target_replicas = 0

    # -- probes -----------------------------------------------------------------

    def _infra_ok(self) -> bool:
        fleet = self.fleet
        if len(fleet.replicas) < self._target_replicas:
            return False
        if self.supervisor.deficit > 0:
            return False
        if any(fleet.replica_status(r)[0] != "ok" for r in fleet.replicas):
            return False
        stats = fleet.router_app.stats()
        return stats["healthy"] == len(fleet.replicas)

    def _slo_ok(self) -> bool:
        snap = self.fleet.slo.snapshot()
        return snap.slo_met or (snap.completions + snap.errors) == 0

    def _probe_once(self) -> None:
        self.probes.append(Probe(self.kernel.now, self._infra_ok(),
                                 self._slo_ok()))

    def _probe_loop(self, stop_event):
        kernel = self.kernel
        while not stop_event.triggered:
            yield kernel.any_of(
                [stop_event, kernel.timeout(self.probe_interval)])
            if stop_event.triggered:
                return
            self._probe_once()

    # -- injection --------------------------------------------------------------

    def _inject_now(self, scenario: ChaosScenario, platform_name: str,
                    fault_duration: float) -> dict:
        """Fire one injector at the current simulated time.

        Returns the injection record: the detail dict plus pre-injection
        snapshots of the loss/retry counters, so scorecards attribute
        only post-fault traffic to the fault.
        """
        fleet = self.fleet
        stats = fleet.router_app.stats()
        record = {
            "scenario": scenario.name,
            "layer": scenario.layer,
            "injected_at": self.kernel.now,
            "failed_forwards_before": stats["failed_forwards"],
            "retried_before": stats["retried_ok"],
            "errors_before": fleet.slo.errors,
        }
        ctx = ChaosContext(
            site=fleet.site, fleet=fleet, platform_name=platform_name,
            fault_duration=fault_duration,
            rng=self.kernel.rng.stream(f"chaos.{scenario.name}"))
        try:
            record["detail"] = scenario.inject(ctx)
        except Exception as exc:  # scorecard the failure, don't hang
            record["error"] = f"{type(exc).__name__}: {exc}"
            record["detail"] = {}
        self.kernel.trace.emit(
            "chaos.inject", scenario=scenario.name,
            **{k: v for k, v in record["detail"].items()
               if isinstance(v, (str, int, float))})
        return record

    # -- the run loop -----------------------------------------------------------

    def _play(self, plan: list[tuple[float, ChaosScenario, float]],
              schedule: ArrivalSchedule, horizon: float,
              label: str, mix: TenantMix | None,
              platform_name: str | None, sessions: SessionSpec | None):
        """Generator: one traffic run with ``plan``'s faults injected.

        ``plan`` is ``[(offset_seconds, scenario, fault_duration), ...]``
        sorted by offset.  Spawns the supervisor, the probe loop, and one
        injector that walks the plan; plays the traffic; takes the
        end-of-run confirmation probe; stops.  Returns
        ``(FleetReport, injection records, platform_name)``.
        """
        fleet = self.fleet
        if fleet.router_app is None:
            raise StateError("start the fleet before running chaos")
        kernel = self.kernel
        self.probes = []
        self.supervisor.reset()
        self._target_replicas = len(fleet.replicas)
        platform_name = platform_name or fleet.config.platforms[0]
        start = kernel.now
        injections: list[dict] = []

        def injector(env):
            for offset, scenario, duration in plan:
                yield env.at(start + offset)
                injections.append(self._inject_now(scenario, platform_name,
                                                   duration))

        stop = kernel.event()
        kernel.spawn(self.supervisor.run(stop), name="chaos:supervisor")
        kernel.spawn(self._probe_loop(stop), name="chaos:probes")
        kernel.spawn(injector(kernel), name="chaos:inject")
        report = yield from fleet.run_scenario(
            schedule, horizon, mix=mix, label=label, sessions=sessions)
        self._probe_once()      # end-of-run confirmation probe
        stop.succeed()
        return report, injections, platform_name

    # -- one scenario -----------------------------------------------------------

    def run_case(self, scenario: ChaosScenario,
                 schedule: ArrivalSchedule, horizon: float,
                 inject_at: float, fault_duration: float = 600.0,
                 mix: TenantMix | None = None,
                 platform_name: str | None = None,
                 sessions: SessionSpec | None = None):
        """Generator: one scenario over one traffic run.

        A one-event plan on the shared run loop.  ``inject_at`` is
        seconds after traffic start.  Returns
        ``(FleetReport, ResilienceReport)``; the fleet report carries the
        resilience scorecard in its ``resilience`` field.  ``sessions``
        plays the multi-turn conversational workload through the fault,
        exactly as :meth:`Fleet.run_scenario` would.
        """
        report, injections, platform_name = yield from self._play(
            [(inject_at, scenario, fault_duration)], schedule, horizon,
            f"chaos:{scenario.name}", mix, platform_name, sessions)
        resilience = self._resilience(scenario, platform_name, report,
                                      injections[0] if injections else {})
        report.resilience = resilience.to_json()
        return report, resilience

    # -- gameday: several faults over one run -----------------------------------

    def run_gameday(self, plan: list[tuple[float, ChaosScenario]],
                    schedule: ArrivalSchedule, horizon: float,
                    fault_duration: float = 600.0,
                    mix: TenantMix | None = None,
                    platform_name: str | None = None,
                    sessions: SessionSpec | None = None):
        """Generator: inject several faults over a single traffic run.

        ``plan`` is ``[(offset_seconds, scenario), ...]``; an optional
        third element overrides ``fault_duration`` for that injection
        (campaign specs carry per-event durations).  Returns
        ``(FleetReport, segments)`` where each segment reports the
        recovery window between its injection and the next one.
        """
        plan = sorted(((item[0], item[1],
                        item[2] if len(item) > 2 else fault_duration)
                       for item in plan), key=lambda item: item[0])
        report, injections, _platform = yield from self._play(
            plan, schedule, horizon, "chaos:gameday", mix, platform_name,
            sessions)
        final_stats = self.fleet.router_app.stats()
        alerts = self.fleet.alerts
        segments = []
        for i, record in enumerate(injections):
            t0 = record["injected_at"]
            nxt = injections[i + 1] if i + 1 < len(injections) else None
            t1 = nxt["injected_at"] if nxt else float("inf")
            detected, recovered = self._recovery_window(t0, t1)
            errors_end = (nxt["errors_before"] if nxt
                          else report.slo.errors)
            retried_end = (nxt["retried_before"] if nxt
                           else final_stats["retried_ok"])
            first_alert = (alerts.first_firing(t0, t1)
                           if alerts is not None else None)
            segments.append({
                "scenario": record["scenario"],
                "layer": record["layer"],
                "injected_at_s": round(t0, 1),
                "detail": record["detail"],
                "detected_at_s": (None if detected is None
                                  else round(detected, 1)),
                "recovered_at_s": (None if recovered is None
                                   else round(recovered, 1)),
                "mttr_s": (None if recovered is None
                           else round(recovered - t0, 1)),
                "detection_delay_alert_s": (None if first_alert is None
                                            else round(first_alert - t0,
                                                       1)),
                "requests_lost": errors_end - record["errors_before"],
                "requests_retried": (retried_end
                                     - record["retried_before"]),
                "error": record.get("error"),
            })
        report.resilience = {"gameday": segments,
                             "repair_events": [e.row() for e in
                                               self.supervisor.events]}
        if alerts is not None:
            report.resilience["incidents"] = \
                self._incident_log(injections).to_json()
        return report, segments

    # -- scoring ----------------------------------------------------------------

    def _recovery_window(self, t0: float,
                         t1: float) -> tuple[float | None, float | None]:
        """(detected_at, recovered_at) from probes in ``[t0, t1)``.

        Never-impaired windows report ``(None, t0)`` — nothing to detect,
        recovery immediate.  Recovery requires every probe after the last
        bad one (within the window) to be good.
        """
        window = [p for p in self.probes if t0 <= p.time < t1]
        bad = [p for p in window if not p.ok]
        if not bad:
            return None, t0
        last_bad = bad[-1].time
        good_after = [p for p in window if p.time > last_bad]
        if good_after:
            return bad[0].time, good_after[0].time
        return bad[0].time, None

    def _incident_log(self, injections: list[dict]) -> IncidentLog:
        """Merge this run's event streams into one incident timeline."""
        alerts = self.fleet.alerts
        return IncidentLog.build(
            alerts=alerts.events if alerts is not None else (),
            injections=[(rec["injected_at"], rec["scenario"],
                         rec["layer"]) for rec in injections
                        if rec.get("injected_at") is not None],
            repairs=[(e.time, e.action, e.replica)
                     for e in self.supervisor.events],
            scales=[(e.time, e.action,
                     f"{e.replicas_before}->{e.replicas_after}")
                    for e in self.fleet.autoscaler.events])

    def _resilience(self, scenario: ChaosScenario, platform_name: str,
                    report: FleetReport, state: dict) -> ResilienceReport:
        injected_at = state.get("injected_at")
        out = ResilienceReport(
            scenario=scenario.name, layer=scenario.layer,
            platform=platform_name,
            injected_at=injected_at if injected_at is not None else -1.0,
            detail=state.get("detail", {}),
            error=state.get("error"))
        if injected_at is None:
            out.error = out.error or "fault never injected"
            return out
        detected, recovered = self._recovery_window(injected_at,
                                                    float("inf"))
        out.detected_at = detected
        out.recovered_at = recovered
        out.mttr_s = (None if recovered is None
                      else recovered - injected_at)
        out.recovery_ok = recovered is not None and out.error is None
        stats = self.fleet.router_app.stats()
        out.failed_forwards = (stats["failed_forwards"]
                               - state.get("failed_forwards_before", 0))
        out.requests_retried = (stats["retried_ok"]
                                - state.get("retried_before", 0))
        # Delta since injection, like the counters above: errors from
        # before the fault are not this fault's losses.
        out.requests_lost = (report.slo.errors
                             - state.get("errors_before", 0))
        responses = [e.time for e in self.supervisor.events
                     if e.time >= injected_at]
        responses += [e.time for e in self.fleet.autoscaler.events
                      if e.time >= injected_at]
        out.first_response_s = (min(responses) - injected_at
                                if responses else None)
        out.repair_events = [e.row() for e in self.supervisor.events]
        alerts = self.fleet.alerts
        if alerts is not None:
            first = alerts.first_firing(injected_at)
            out.detection_delay_alert_s = (None if first is None
                                           else first - injected_at)
            out.alerts_fired = alerts.fired_count(injected_at)
            log = self._incident_log([state])
            out.false_alerts = log.false_alerts()
            out.incidents = log.to_json()
        return out
