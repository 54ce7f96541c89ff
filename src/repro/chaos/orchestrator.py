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
  stay good through the end of the fault's window (0 when the fault
  never registers, e.g. a latency spike the SLO absorbs);
* **requests lost vs retried** — SLO-tracker errors vs router requests
  that succeeded only after a failover;
* **first response** — the first supervisor repair or autoscaler action
  after injection.

The probe ground truth is scored *next to* the telemetry path an
operator would actually have: when the fleet runs with its alert
evaluator on, ``detection_delay_alert_s`` measures injection to first
firing alert (``None`` = the rule set never noticed), false-positive
firings are counted, and the firing timeline merges with injections,
supervisor repairs, and scale actions into a deterministic
:class:`~repro.obs.incident.IncidentLog` on the report.

One scorer serves both: each fault scores over its window, up to the
next injection or the run's end; a single fault is the one-window case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConfigurationError, StateError
from ..obs.incident import IncidentLog
from .scenarios import ChaosContext, ChaosScenario
from .supervisor import ReplicaSupervisor

if TYPE_CHECKING:  # pragma: no cover
    from ..fleet import Fleet, FleetReport
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
    """Scorecard of one fault over its injection window."""

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
    #: the run's whole supervisor repair log (run-level, like
    #: ``false_alerts`` and ``incidents``).
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


#: The :meth:`ResilienceReport.to_json` keys a game-day segment row keeps.
SEGMENT_KEYS = frozenset({
    "scenario", "layer", "injected_at_s", "detail", "detected_at_s",
    "recovered_at_s", "mttr_s", "detection_delay_alert_s",
    "requests_lost", "requests_retried", "error"})


class ChaosOrchestrator:
    """Binds a fleet to the supervisor, a probe loop, and fault plans.

    Both cadences come from the fleet's spec: ``supervisor_interval``
    for the supervisor's sweeps, ``probe_interval`` for the probes.
    """

    def __init__(self, fleet: Fleet):
        self.fleet = fleet
        self.kernel = fleet.kernel
        self.supervisor = fleet.supervisor = ReplicaSupervisor(fleet)
        self.probes: list[Probe] = []

    # -- probes -----------------------------------------------------------------

    def _infra_ok(self) -> bool:
        fleet = self.fleet
        if self.supervisor.deficit or self.supervisor.replacing:
            return False
        if any(fleet.replica_status(r)[0] != "ok" for r in fleet.replicas):
            return False
        return fleet.router_app.healthy_backends == len(fleet.replicas)

    def _slo_ok(self) -> bool:
        snap = self.fleet.slo.snapshot()
        return snap.slo_met or (snap.completions + snap.errors) == 0

    def _probe_once(self) -> None:
        self.probes.append(Probe(self.kernel.now, self._infra_ok(),
                                 self._slo_ok()))

    def _probe_loop(self, stop_event):
        """Probe every ``probe_interval``; a skipped probe reads the
        infrastructure as it stands and a drained, so met, SLO window."""
        while (yield from self.fleet.ff.wait_tick(
                self.fleet.spec.probe_interval, stop_event,
                idle=self._probe_idle)):
            self._probe_once()

    def _probe_idle(self, ticks: list[float]) -> None:
        infra_ok = self._infra_ok()
        self.probes += [Probe(t, infra_ok, True) for t in ticks]

    # -- injection --------------------------------------------------------------

    def _inject_now(self, scenario: ChaosScenario, platform_name: str,
                    fault_duration: float) -> dict:
        """Fire one injector at the current simulated time.

        Returns the injection record: the detail dict plus pre-injection
        snapshots of the loss/retry counters, so scorecards attribute
        only post-fault traffic to the fault.
        """
        fleet = self.fleet
        router = fleet.router_app
        record = {
            "scenario": scenario.name,
            "layer": scenario.layer,
            "injected_at": self.kernel.now,
            "failed_forwards_before": router.failed_forwards,
            "retried_before": router.retried_ok,
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
        end-of-run confirmation probe; stops.  Returns the
        :class:`FleetReport` with one scored :class:`ResilienceReport`
        per planned fault in its ``faults`` field.
        """
        fleet = self.fleet
        if fleet.router_app is None:
            raise StateError("start the fleet before running chaos")
        kernel = self.kernel
        self.probes = []
        self.supervisor.reset()
        platform_name = platform_name or fleet.spec.platforms[0]
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
        report.faults = self._score(plan, injections, report, platform_name)
        return report

    # -- one scenario -----------------------------------------------------------

    def run_case(self, scenario: ChaosScenario,
                 schedule: ArrivalSchedule, horizon: float,
                 inject_at: float, fault_duration: float = 600.0,
                 mix: TenantMix | None = None,
                 platform_name: str | None = None,
                 sessions: SessionSpec | None = None):
        """Generator: one scenario over one traffic run.

        A one-event plan on the shared run loop, scored as one window.
        ``inject_at`` is seconds after traffic start.  Returns
        ``(FleetReport, ResilienceReport)``; the fleet report carries the
        resilience scorecard in its ``resilience`` field.  ``sessions``
        plays the multi-turn conversational workload through the fault,
        exactly as :meth:`Fleet.run_scenario` would.
        """
        report = yield from self._play(
            [(inject_at, scenario, fault_duration)], schedule, horizon,
            f"chaos:{scenario.name}", mix, platform_name, sessions)
        (resilience,) = report.faults
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
        ``(FleetReport, windows)``: one :class:`ResilienceReport` per
        fault, scored over the window between its injection and the
        next one.  The fleet report's ``resilience`` block lists each
        window's :data:`SEGMENT_KEYS` and the whole-cell verdict:
        recovered when every window recovered, MTTR the worst window's
        (None when any window did not recover).
        """
        if not plan:
            raise ConfigurationError("a game day needs at least one fault")
        plan = sorted(((item[0], item[1],
                        item[2] if len(item) > 2 else fault_duration)
                       for item in plan), key=lambda item: item[0])
        report = yield from self._play(
            plan, schedule, horizon, "chaos:gameday", mix, platform_name,
            sessions)
        windows = report.faults
        rows = [window.to_json() for window in windows]
        segments = [{k: v for k, v in row.items() if k in SEGMENT_KEYS}
                    for row in rows]
        mttrs = [s["mttr_s"] for s in segments]
        report.resilience = {
            "gameday": segments,
            # run-level, so every window carries the same ones
            **{k: rows[0][k] for k in ("repair_events", "incidents")
               if k in rows[0]},
            "recovery_ok": all(w.recovery_ok for w in windows),
            "mttr_s": None if None in mttrs else max(mttrs)}
        return report, windows

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
                         rec["layer"]) for rec in injections],
            repairs=[(e.time, e.action, e.replica)
                     for e in self.supervisor.events],
            scales=[(e.time, e.action,
                     f"{e.replicas_before}->{e.replicas_after}")
                    for e in self.fleet.autoscaler.events])

    def _score(self, plan: list[tuple[float, ChaosScenario, float]],
               injections: list[dict], report: FleetReport,
               platform_name: str) -> list[ResilienceReport]:
        """One :class:`ResilienceReport` per planned fault, each over
        ``[injection i, injection i+1)`` (the last up to the run's end).

        Window counters are the next record's ``*_before`` snapshots (or
        the final stats) minus the fault's own.  A fault the run ended
        before injecting reports ``"fault never injected"``.
        """
        fleet = self.fleet
        router = fleet.router_app
        end_of_run = {"injected_at": math.inf,
                      "failed_forwards_before": router.failed_forwards,
                      "retried_before": router.retried_ok,
                      "errors_before": report.slo.errors}
        bounds = injections[1:] + [end_of_run]
        repairs = [e.row() for e in self.supervisor.events]
        responses = sorted([e.time for e in self.supervisor.events]
                           + [e.time for e in fleet.autoscaler.events])
        alerts = fleet.alerts
        if alerts is not None:
            log = self._incident_log(injections)
            false_alerts, incidents = log.false_alerts(), log.to_json()
        windows = []
        for i, (_offset, scenario, _duration) in enumerate(plan):
            out = ResilienceReport(
                scenario=scenario.name, layer=scenario.layer,
                platform=platform_name, injected_at=-1.0,
                repair_events=repairs, error="fault never injected")
            if alerts is not None:
                out.false_alerts, out.incidents = false_alerts, incidents
            windows.append(out)
            if i >= len(injections):
                continue
            state, end = injections[i], bounds[i]
            t0, t1 = state["injected_at"], end["injected_at"]
            out.injected_at = t0
            out.detail = state["detail"]
            out.error = state.get("error")
            out.detected_at, out.recovered_at = self._recovery_window(t0,
                                                                      t1)
            out.mttr_s = (None if out.recovered_at is None
                          else out.recovered_at - t0)
            out.recovery_ok = (out.recovered_at is not None
                               and out.error is None)
            # Deltas over the window: traffic lost before the fault, or
            # after the next one, is not this fault's.
            out.failed_forwards = (end["failed_forwards_before"]
                                   - state["failed_forwards_before"])
            out.requests_retried = (end["retried_before"]
                                    - state["retried_before"])
            out.requests_lost = end["errors_before"] - state["errors_before"]
            out.first_response_s = next(
                (t - t0 for t in responses if t0 <= t < t1), None)
            if alerts is not None:
                first = alerts.first_firing(t0, t1)
                out.detection_delay_alert_s = (None if first is None
                                               else first - t0)
                out.alerts_fired = alerts.fired_count(t0, t1)
        return windows
