"""Declarative SLO alerting over the scraped time-series.

PR 6 built the telemetry *data plane* — a metrics registry and a
simulated Prometheus (:class:`~repro.obs.scrape.MetricsScraper`).  This
module is the first consumer that closes the operator loop: a set of
declarative :class:`AlertRule`\\ s evaluated against the scraper's
point-in-time reads, with the standard pending → firing → resolved
lifecycle.  The evaluator owns no clock: the fleet's telemetry loop
calls :meth:`AlertEvaluator.evaluate_at` right after each live scrape,
and :meth:`AlertEvaluator.evaluate_idle` on each run of skipped ones,
so every evaluation reads the sample of its own instant.
Three rule kinds cover the SRE playbook:

* ``threshold`` — a series compared against a constant, optionally
  sustained for ``for_s`` seconds before paging (``fleet_slo_ttft_p95
  > target``);
* ``absence`` — a series that stopped changing (no ok-completions
  recorded for N seconds: dead traffic path or dead telemetry);
* ``burn_rate`` — multi-window error-budget burn (the Google SRE
  multi-window/multi-burn-rate recipe): the bad/total ratio over a
  *long* and a *short* window, both normalized by the error budget,
  must exceed ``factor`` together.  The long window gives confidence,
  the short window makes the alert resolve quickly once the bleeding
  stops.

Everything is deterministic by construction: evaluation instants are
the scrape instants, measurements come from the scraper's
delta-encoded series (so w4 and w1 campaign workers read identical
values), and :meth:`AlertEvaluator.digest` is a canonical SHA-256 over
the transition events — the scorecard witness the CI job ``cmp``\\ s
across worker counts.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel.ticks import TickRun
    from ..simkernel.kernel import SimKernel
    from .scrape import MetricsScraper

__all__ = ["AlertEvent", "AlertEvaluator", "AlertRule", "default_slo_rules"]

#: Rule kinds, in the order the reference docs present them.
RULE_KINDS = ("threshold", "absence", "burn_rate")

#: Comparison spellings accepted by threshold rules.
_OPS = (">", ">=", "<", "<=")

#: Lifecycle states (``resolved`` is an event, not a resting state: a
#: rule returns to ``inactive`` the moment it resolves).
INACTIVE = "inactive"
PENDING = "pending"
FIRING = "firing"


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert: what to measure and when to page.

    ``kind`` selects which field group applies; ``__post_init__``
    rejects rules whose fields do not match their kind, so a bad rule
    fails where it is written, not silently mid-campaign.
    """

    name: str
    kind: str
    severity: str = "page"
    #: threshold: ``series <op> threshold``, sustained ``for_s`` seconds.
    series: str = ""
    op: str = ">"
    threshold: float = 0.0
    for_s: float = 0.0
    #: absence: ``series`` unchanged for ``max_silence_s`` seconds.
    max_silence_s: float = 0.0
    #: burn_rate: sum(bad) / sum(total) over both windows, divided by
    #: ``budget``, must exceed ``factor``.
    bad_series: tuple[str, ...] = ()
    total_series: tuple[str, ...] = ()
    budget: float = 0.0
    long_s: float = 0.0
    short_s: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("alert rule needs a name")
        if self.kind not in RULE_KINDS:
            raise ConfigurationError(
                f"unknown alert kind {self.kind!r} (choices: "
                f"{list(RULE_KINDS)})")
        if self.severity not in ("page", "ticket"):
            raise ConfigurationError(
                f"alert severity must be 'page' or 'ticket', "
                f"not {self.severity!r}")
        if self.kind == "threshold":
            if not self.series:
                raise ConfigurationError(
                    f"threshold rule {self.name!r} needs a series")
            if self.op not in _OPS:
                raise ConfigurationError(
                    f"threshold rule {self.name!r}: bad op {self.op!r} "
                    f"(choices: {list(_OPS)})")
            if self.for_s < 0:
                raise ConfigurationError(
                    f"threshold rule {self.name!r}: for_s must be >= 0")
        elif self.kind == "absence":
            if not self.series:
                raise ConfigurationError(
                    f"absence rule {self.name!r} needs a series")
            if self.max_silence_s <= 0:
                raise ConfigurationError(
                    f"absence rule {self.name!r}: max_silence_s must "
                    "be positive")
        else:
            if not self.bad_series or not self.total_series:
                raise ConfigurationError(
                    f"burn-rate rule {self.name!r} needs bad_series "
                    "and total_series")
            if self.budget <= 0 or self.budget >= 1:
                raise ConfigurationError(
                    f"burn-rate rule {self.name!r}: budget must be in "
                    "(0, 1)")
            if self.short_s <= 0 or self.long_s < self.short_s:
                raise ConfigurationError(
                    f"burn-rate rule {self.name!r}: need "
                    "0 < short_s <= long_s")
            if self.factor <= 0:
                raise ConfigurationError(
                    f"burn-rate rule {self.name!r}: factor must be "
                    "positive")

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "kind": self.kind,
                               "severity": self.severity}
        if self.kind == "threshold":
            out.update(series=self.series, op=self.op,
                       threshold=self.threshold, for_s=self.for_s)
        elif self.kind == "absence":
            out.update(series=self.series,
                       max_silence_s=self.max_silence_s)
        else:
            out.update(bad_series=list(self.bad_series),
                       total_series=list(self.total_series),
                       budget=self.budget, long_s=self.long_s,
                       short_s=self.short_s, factor=self.factor)
        return out


@dataclass(frozen=True)
class AlertEvent:
    """One lifecycle transition: a rule entered ``state`` at ``time``."""

    time: float
    rule: str
    state: str        # pending | firing | resolved
    value: float      # the measurement that drove the transition

    def row(self) -> dict[str, Any]:
        return {"t": round(self.time, 3), "rule": self.rule,
                "state": self.state, "value": round(self.value, 6)}


@dataclass
class _RuleState:
    state: str = INACTIVE
    pending_since: float = 0.0


class AlertEvaluator:
    """Evaluates a rule set at the scraper's cadence, deterministically.

    Call :meth:`evaluate_at` after each scrape (the fleet's telemetry
    loop does).  Only transition events are recorded — a rule that
    stays firing across ten evaluations contributes one event — so the
    scorecard block stays small on long soaks.
    """

    def __init__(self, kernel: SimKernel, scraper: MetricsScraper,
                 rules: Sequence[AlertRule]):
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate alert rule names: "
                f"{sorted({n for n in names if names.count(n) > 1})}")
        self.kernel = kernel
        self.scraper = scraper
        self.rules = tuple(rules)
        self.started_at = kernel.now
        self.evaluations = 0
        self.events: list[AlertEvent] = []
        self._states: dict[str, _RuleState] = {
            r.name: _RuleState() for r in self.rules}

    # -- measurement --------------------------------------------------------------

    def _sum_at(self, keys: Iterable[str], t: float) -> float:
        value_at = self.scraper.value_at
        total = 0.0
        for key in keys:
            total += value_at(key, t, default=0.0)
        return total

    def burn_over(self, rule: AlertRule, now: float,
                  window: float) -> float:
        """Error-budget burn of ``rule`` over ``[now - window, now]``.

        ``(Δbad / Δtotal) / budget``; a window with no completions burns
        nothing (vacuously healthy, matching the SLO tracker's empty
        window convention).  Exposed — not an underscore helper — so the
        property test can pin it against a brute-force recompute from
        :meth:`~repro.obs.scrape.MetricsScraper.fold`.
        """
        t0 = now - window
        bad = self._sum_at(rule.bad_series, now) \
            - self._sum_at(rule.bad_series, t0)
        total = self._sum_at(rule.total_series, now) \
            - self._sum_at(rule.total_series, t0)
        if total <= 0:
            return 0.0
        return (bad / total) / rule.budget

    def measure(self, rule: AlertRule, now: float) -> tuple[bool, float]:
        """(condition holds, the measurement to report) at ``now``."""
        if rule.kind == "threshold":
            value = self.scraper.value_at(rule.series, now)
            if value is None:
                return False, 0.0
            if rule.op == ">":
                return value > rule.threshold, value
            if rule.op == ">=":
                return value >= rule.threshold, value
            if rule.op == "<":
                return value < rule.threshold, value
            return value <= rule.threshold, value
        if rule.kind == "absence":
            last = self.scraper.last_change(rule.series, now)
            silence = now - (self.started_at if last is None else last)
            return silence >= rule.max_silence_s, silence
        burn_long = self.burn_over(rule, now, rule.long_s)
        burn_short = self.burn_over(rule, now, rule.short_s)
        return (burn_long > rule.factor and burn_short > rule.factor,
                burn_long)

    # -- lifecycle ----------------------------------------------------------------

    def evaluate_at(self, now: float) -> None:
        """One evaluation pass: advance every rule's state machine."""
        events = self.events
        for rule in self.rules:
            holds, value = self.measure(rule, now)
            st = self._states[rule.name]
            if holds:
                if st.state == INACTIVE:
                    if rule.kind == "threshold" and rule.for_s > 0:
                        st.state = PENDING
                        st.pending_since = now
                        events.append(AlertEvent(now, rule.name,
                                                 PENDING, value))
                    else:
                        st.state = FIRING
                        events.append(AlertEvent(now, rule.name,
                                                 FIRING, value))
                elif (st.state == PENDING
                      and now - st.pending_since >= rule.for_s):
                    st.state = FIRING
                    events.append(AlertEvent(now, rule.name, FIRING,
                                             value))
            else:
                if st.state == FIRING:
                    events.append(AlertEvent(now, rule.name, "resolved",
                                             value))
                st.state = INACTIVE
        self.evaluations += 1

    def evaluate_idle(self, run: TickRun) -> None:
        """Evaluate at every tick of a run of skipped (empty) scrapes.

        The same events and states as :meth:`evaluate_at` on each tick
        in turn, but evaluated only on the ticks where some rule can
        change state (the run's event horizon): no series moves during
        the run, so a threshold rule's value is constant, an absence
        rule's silence grows with the clock, and a burn rate moves only
        when a window start passes a change of one of its series.
        ``evaluations`` still counts every tick.
        """
        ticks = run.times().tolist()
        n = len(ticks)
        i = calls = 0
        while i < n:
            self.evaluate_at(ticks[i])
            calls += 1
            nxt = n
            for rule in self.rules:
                nxt = self._next_change(rule, ticks, i, nxt)
            i = nxt
        self.evaluations += n - calls

    def _next_change(self, rule: AlertRule, ticks: Sequence[float],
                     i: int, hi: int) -> int:
        """Index of the first tick in ``ticks[i + 1:hi]`` at which
        ``rule``, as evaluated at ``ticks[i]``, can change state over an
        empty-delta run; ``hi`` when there is none."""
        st = self._states[rule.name]
        lo = i + 1
        if rule.kind == "threshold":
            if st.state != PENDING:
                return hi       # constant value: the state is settled
            return _first_reaching(ticks, lo, hi, st.pending_since,
                                   rule.for_s)
        if rule.kind == "absence":
            if st.state == FIRING:
                return hi       # silence only grows
            last = self.scraper.last_change(rule.series, ticks[i])
            base = self.started_at if last is None else last
            return _first_reaching(ticks, lo, hi, base, rule.max_silence_s)
        now = ticks[i]
        for window in (rule.long_s, rule.short_s):
            for key in (*rule.bad_series, *rule.total_series):
                change = self.scraper.next_change(key, now - window)
                if change is not None:
                    hi = _first_reaching(ticks, lo, hi, window, change)
        return hi

    # -- queries ------------------------------------------------------------------

    def firing(self) -> list[str]:
        """Rules currently firing, name-sorted."""
        return sorted(name for name, st in self._states.items()
                      if st.state == FIRING)

    def first_firing(self, t0: float,
                     t1: float = float("inf")) -> float | None:
        """Time of the first firing transition in ``[t0, t1)``."""
        for event in self.events:
            if event.state == FIRING and t0 <= event.time < t1:
                return event.time
        return None

    def fired_count(self, t0: float = 0.0,
                    t1: float = float("inf")) -> int:
        return sum(1 for e in self.events
                   if e.state == FIRING and t0 <= e.time < t1)

    def digest(self) -> str:
        """Canonical SHA-256 over the rule set and every transition."""
        h = hashlib.sha256()
        for rule in self.rules:
            h.update(json.dumps(rule.to_json(), sort_keys=True).encode())
            h.update(b"\n")
        for event in self.events:
            h.update(json.dumps(event.row(), sort_keys=True).encode())
            h.update(b"\n")
        return h.hexdigest()

    def to_json(self) -> dict[str, Any]:
        return {
            "interval": float(self.scraper.interval),
            "rules": [r.to_json() for r in self.rules],
            "evaluations": self.evaluations,
            "events": [e.row() for e in self.events],
            "firing": self.firing(),
            "fired_total": self.fired_count(),
            "digest": self.digest(),
        }


def _first_reaching(ticks: Sequence[float], lo: int, hi: int,
                    base: float, span: float) -> int:
    """Index of the first tick in ``ticks[lo:hi]`` with
    ``t - base >= span``; ``hi`` when there is none.

    Bisects on the exact float comparison :meth:`AlertEvaluator.measure`
    and :meth:`AlertEvaluator.evaluate_at` make: the rearranged
    ``t >= base + span`` can differ from it by an ulp.
    """
    return bisect_left(ticks, True, lo, hi, key=lambda t: t - base >= span)


def default_slo_rules(*, ttft_target: float, e2e_target: float,
                      max_error_rate: float, percentile: float = 95.0,
                      interval: float = 300.0,
                      min_replicas: int = 0) -> tuple[AlertRule, ...]:
    """The stock rule set a fleet derives from its ``SloSpec``.

    Plain floats rather than the spec object keep this package below
    :mod:`repro.fleet` in the layering; the fleet passes its spec's
    fields.  Windows are expressed in evaluation intervals: the
    fast-burn page pairs a 4-interval long window with a 1-interval
    short window at 14.4x budget burn (the classic 1h/5m page scaled to
    the simulated scrape cadence); the slow-burn ticket pairs
    12/3 intervals at 6x.

    Two infra rules page on signals retries can hide from the SLO
    window: a backend failing health checks, and — when the caller
    states its floor (``min_replicas > 0``) — live capacity below it
    (a crashed replica is *removed* from the router pool, so it shows
    up as missing capacity, not as an unhealthy backend).
    """
    err = 'fleet_requests_total{outcome="error"}'
    ok = 'fleet_requests_total{outcome="ok"}'
    capacity = (AlertRule(
        name="fleet-capacity-low", kind="threshold", severity="page",
        series="fleet_replicas", op="<",
        threshold=float(min_replicas)),) if min_replicas > 0 else ()
    return capacity + (
        AlertRule(name="error-budget-fast-burn", kind="burn_rate",
                  severity="page", bad_series=(err,),
                  total_series=(ok, err), budget=max_error_rate,
                  long_s=4 * interval, short_s=interval, factor=14.4),
        AlertRule(name="error-budget-slow-burn", kind="burn_rate",
                  severity="ticket", bad_series=(err,),
                  total_series=(ok, err), budget=max_error_rate,
                  long_s=12 * interval, short_s=3 * interval, factor=6.0),
        AlertRule(name="slo-ttft-breach", kind="threshold",
                  severity="page", series="fleet_slo_ttft_p95_seconds",
                  op=">", threshold=ttft_target, for_s=interval),
        AlertRule(name="slo-e2e-breach", kind="threshold",
                  severity="page", series="fleet_slo_e2e_p95_seconds",
                  op=">", threshold=e2e_target, for_s=interval),
        AlertRule(name="slo-attainment-low", kind="threshold",
                  severity="ticket", series="fleet_slo_attainment",
                  op="<", threshold=percentile / 100.0, for_s=interval),
        AlertRule(name="backend-unhealthy", kind="threshold",
                  severity="page", series="router_backends_unhealthy",
                  op=">", threshold=0.0),
        AlertRule(name="traffic-absent", kind="absence",
                  severity="ticket", series=ok,
                  max_silence_s=3 * interval),
    )
