"""Oracle: :meth:`AlertEvaluator.evaluate_idle` against per-tick stepping.

Over a run of skipped (empty-delta) scrapes, ``evaluate_idle`` evaluates
only the ticks where some rule can change state: the run's first tick,
an absence rule's silence reaching its limit, a burn window's start
passing a change of one of its series, and a pending rule's ``for_s``
elapsing.  The oracle is the plain loop it replaces, ``evaluate_at`` on
every tick.  Both must leave the same events, per-rule states,
``evaluations`` count and digest, on generated rule sets, scrape
histories and run lengths, and on hand-built cases whose crossings land
exactly on a tick.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.alerts import AlertEvaluator, AlertRule
from repro.obs.metrics import MetricsRegistry
from repro.obs.scrape import MetricsScraper
from repro.simkernel import SimKernel
from repro.simkernel.ticks import TickRun

_KEYS = ("s0", "s1", "s2", "s3")
#: rules may name a series that never appears
_SERIES = _KEYS + ("missing",)


def _state(evaluator):
    return {
        "events": list(evaluator.events),
        "states": {name: (st.state, st.pending_since)
                   for name, st in evaluator._states.items()},
        "evaluations": evaluator.evaluations,
        "digest": evaluator.digest(),
    }


def _chain(start, interval, n):
    """``n`` tick times by repeated addition, as the governor steps."""
    ticks, t = [], start
    for _ in range(n):
        t += interval
        ticks.append(t)
    return ticks


class _History:
    """A registry of gauges, a scraper, and two evaluators over it: one
    for ``evaluate_idle``, one for the per-tick oracle."""

    def __init__(self, rules, interval=10.0):
        self.kernel = SimKernel(seed=1)
        self.registry = MetricsRegistry()
        self.scraper = MetricsScraper(self.kernel, self.registry, interval)
        self.gauges = {}
        self.fast = AlertEvaluator(self.kernel, self.scraper, rules)
        self.oracle = AlertEvaluator(self.kernel, self.scraper, rules)

    def scrape(self, at, values, evaluate=True):
        """Set ``values`` (series -> reading), scrape at ``at``, and
        evaluate both evaluators there unless ``evaluate`` is False."""
        self.kernel.run(until=at)
        for key, value in values.items():
            if key not in self.gauges:
                self.gauges[key] = self.registry.gauge(key).labels()
            self.gauges[key].set(value)
        self.scraper.scrape_once()
        if evaluate:
            self.fast.evaluate_at(self.kernel.now)
            self.oracle.evaluate_at(self.kernel.now)

    def idle(self, n):
        """A run of ``n`` skipped scrapes after now; returns both sides'
        end states."""
        interval = self.scraper.interval
        ticks = _chain(self.kernel.now, interval, n)
        run = TickRun(self.kernel.now + interval, (interval,), n)
        assert list(run) == ticks
        self.scraper.scrape_idle(run)
        self.fast.evaluate_idle(run)
        for t in ticks:
            self.oracle.evaluate_at(t)
        return ticks, _state(self.fast), _state(self.oracle)


# -- generated rule sets, histories and runs ----------------------------------

_INTERVALS = st.sampled_from((10.0, 0.1, 7.3, 300.0))
#: durations in units of the scrape interval: whole multiples put a
#: crossing exactly on a tick of the chain
_SPANS = st.one_of(st.integers(1, 12).map(float),
                   st.floats(0.05, 12.0, allow_nan=False))


@st.composite
def _rule(draw, name, interval):
    kind = draw(st.sampled_from(("threshold", "threshold", "absence",
                                 "burn_rate")))
    if kind == "threshold":
        return AlertRule(
            name=name, kind=kind, series=draw(st.sampled_from(_SERIES)),
            op=draw(st.sampled_from((">", ">=", "<", "<="))),
            threshold=float(draw(st.integers(0, 4))),
            for_s=draw(st.one_of(st.just(0.0),
                                 _SPANS.map(lambda k: k * interval))))
    if kind == "absence":
        return AlertRule(
            name=name, kind=kind, series=draw(st.sampled_from(_SERIES)),
            max_silence_s=draw(_SPANS) * interval)
    short = draw(_SPANS) * interval
    return AlertRule(
        name=name, kind=kind,
        bad_series=tuple(draw(st.lists(st.sampled_from(_SERIES),
                                       min_size=1, max_size=2,
                                       unique=True))),
        total_series=tuple(draw(st.lists(st.sampled_from(_SERIES),
                                         min_size=1, max_size=3,
                                         unique=True))),
        budget=draw(st.sampled_from((0.01, 0.1, 0.5))),
        short_s=short, long_s=short + draw(_SPANS) * interval,
        factor=draw(st.sampled_from((0.5, 1.0, 6.0))))


@st.composite
def _scenario(draw):
    interval = draw(_INTERVALS)
    rules = [draw(_rule(f"r{i}", interval))
             for i in range(draw(st.integers(1, 6)))]
    steps = draw(st.lists(st.tuples(
        # gap before the scrape, in intervals
        st.one_of(st.integers(1, 4).map(float),
                  st.floats(0.1, 4.0, allow_nan=False)),
        st.dictionaries(st.sampled_from(_KEYS), st.integers(0, 6),
                        max_size=3),
        st.booleans()),                        # evaluate this scrape?
        min_size=1, max_size=8))
    runs = draw(st.lists(st.integers(1, 120), min_size=1, max_size=3))
    return interval, rules, steps, runs


@given(scenario=_scenario())
@settings(max_examples=300, deadline=None)
def test_evaluate_idle_matches_evaluate_at_on_every_tick(scenario):
    interval, rules, steps, runs = scenario
    history = _History(rules, interval)
    for n in runs:
        for gap, values, evaluate in steps:
            history.scrape(history.kernel.now + gap * interval, values,
                           evaluate)
        _, fast, oracle = history.idle(n)
        assert fast == oracle


# -- crossings exactly on a tick ----------------------------------------------


def _fired_at(state, rule):
    return [e.time for e in state["events"]
            if e.rule == rule and e.state == "firing"]


def test_for_s_crossing_on_a_tick():
    """Pending since a live tick, ``for_s`` three intervals: the rule
    fires on the third skipped tick, not one later."""
    rule = AlertRule(name="hot", kind="threshold", series="s0", op=">",
                     threshold=1.0, for_s=30.0)
    history = _History([rule])
    history.scrape(10.0, {"s0": 5.0})
    ticks, fast, oracle = history.idle(6)
    assert fast == oracle
    assert ticks[2] - 10.0 == 30.0
    assert _fired_at(fast, "hot") == [ticks[2]]


def test_absence_crossing_on_a_tick():
    """The series last moved at 20 s; with a 40 s limit the silence
    reaches it, ``>=``, exactly on the fourth skipped tick."""
    rule = AlertRule(name="quiet", kind="absence", series="s0",
                     max_silence_s=40.0)
    history = _History([rule])
    history.scrape(10.0, {"s0": 1.0})
    history.scrape(20.0, {"s0": 2.0})
    ticks, fast, oracle = history.idle(8)
    assert fast == oracle
    assert ticks[3] - 20.0 == 40.0
    assert _fired_at(fast, "quiet") == [ticks[3]]


def test_burn_window_edge_equal_to_a_change_time():
    """Errors land at 30 s; the 20 s short window's start reaches that
    change time exactly on a skipped tick, where the burn stops and
    the firing rule resolves."""
    rule = AlertRule(name="burn", kind="burn_rate", bad_series=("s0",),
                     total_series=("s1",), budget=0.1, long_s=40.0,
                     short_s=20.0, factor=1.0)
    history = _History([rule])
    history.scrape(10.0, {"s0": 0.0, "s1": 10.0})
    history.scrape(20.0, {"s1": 20.0})
    history.scrape(30.0, {"s0": 5.0, "s1": 30.0})
    ticks, fast, oracle = history.idle(8)
    assert fast == oracle
    resolved = [e.time for e in fast["events"] if e.state == "resolved"]
    assert resolved == [ticks[1]] and ticks[1] - 20.0 == 30.0


def test_long_burn_window_passing_a_change():
    """A burst of errors at 10 s keeps the 50 s long window burning
    until its start reaches 10 s, on the second skipped tick; the short
    window still holds the late errors then, so only the long window's
    crossing resolves the rule."""
    rule = AlertRule(name="burn", kind="burn_rate", bad_series=("s0",),
                     total_series=("s1",), budget=0.1, long_s=50.0,
                     short_s=20.0, factor=1.0)
    history = _History([rule], interval=5.0)
    history.scrape(10.0, {"s0": 100.0, "s1": 100.0})
    history.scrape(20.0, {"s1": 300.0})
    history.scrape(50.0, {"s0": 102.0, "s1": 302.0})
    ticks, fast, oracle = history.idle(6)
    assert fast == oracle
    assert ticks[1] - 50.0 == 10.0
    assert [(e.time, e.state) for e in fast["events"]] == [
        (10.0, "firing"), (ticks[1], "resolved")]


def test_series_first_appearing_just_before_the_run():
    """A series the evaluators never saw appears on the last live
    scrape, which is not evaluated: the run's first tick is the first
    evaluation that reads it."""
    rules = [AlertRule(name="new", kind="threshold", series="s2", op=">",
                       threshold=0.0),
             AlertRule(name="old", kind="absence", series="s0",
                       max_silence_s=500.0)]
    history = _History(rules)
    history.scrape(10.0, {"s0": 1.0})
    history.scrape(20.0, {"s2": 3.0}, evaluate=False)
    ticks, fast, oracle = history.idle(5)
    assert fast == oracle
    assert _fired_at(fast, "new") == [ticks[0]]


def test_a_long_run_evaluates_only_at_its_horizon():
    """The stock rule set over a day of skipped scrapes: a handful of
    evaluations, every tick counted."""
    rules = [AlertRule(name="burn", kind="burn_rate", bad_series=("s0",),
                       total_series=("s1",), budget=0.1, long_s=1200.0,
                       short_s=300.0, factor=1.0),
             AlertRule(name="quiet", kind="absence", series="s1",
                       max_silence_s=900.0),
             AlertRule(name="hot", kind="threshold", series="s2", op=">",
                       threshold=0.0, for_s=300.0)]
    history = _History(rules, interval=300.0)
    history.scrape(300.0, {"s0": 1.0, "s1": 4.0, "s2": 1.0})
    calls = []
    evaluate_at = history.fast.evaluate_at

    def counted(now):
        calls.append(now)
        evaluate_at(now)

    history.fast.evaluate_at = counted
    ticks, fast, oracle = history.idle(288)
    assert fast == oracle
    assert fast["evaluations"] == 1 + 288
    assert len(calls) <= 6


def test_crossings_use_the_exact_float_comparison():
    """Tick chains on which a horizon found by rearranged algebra would
    land one tick late.  On the 0.7 s chain, ``t - 2.8 >= 12 * 0.7``
    first holds at 11.199999999999998, where ``t >= 2.8 + 12 * 0.7``
    does not (the pending and absence crossings); on the 0.1 s chain,
    ``t - 0.3 >= 0.7`` first holds at 0.9999999999999999, where
    ``t >= 0.7 + 0.3`` does not (a burn window passing a change)."""
    span = 12 * 0.7
    since = _chain(0.0, 0.7, 4)[-1]
    # One rule per history: a rule evaluated on another's horizon tick
    # would hide its own late horizon.
    for rule in (AlertRule(name="hot", kind="threshold", series="s0",
                           op=">", threshold=0.0, for_s=span),
                 AlertRule(name="quiet", kind="absence", series="s0",
                           max_silence_s=span)):
        history = _History([rule], interval=0.7)
        history.scrape(since, {"s0": 1.0})
        ticks, fast, oracle = history.idle(14)
        assert fast == oracle
        edge = ticks[11]
        assert edge - since >= span and not edge >= since + span
        assert _fired_at(fast, rule.name) == [edge]

    history = _History([
        AlertRule(name="burn", kind="burn_rate", bad_series=("s0",),
                  total_series=("s1",), budget=0.1, long_s=0.3,
                  short_s=0.3, factor=1.0)], interval=0.1)
    chain = _chain(0.0, 0.1, 7)
    history.scrape(chain[0], {"s0": 0.0, "s1": 10.0})
    history.scrape(chain[6], {"s0": 5.0, "s1": 30.0})
    ticks, fast, oracle = history.idle(6)
    assert fast == oracle
    edge = ticks[2]
    assert edge - 0.3 >= chain[6] and not edge >= chain[6] + 0.3
    assert [(e.time, e.state) for e in fast["events"]] == [
        (chain[6], "firing"), (edge, "resolved")]
