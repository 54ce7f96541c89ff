"""Oracle: tick chains by cumulative sum against the stepped loops.

Quiet-play finds a window's skipped ticks with ``np.cumsum``
(:meth:`TickRun.before`), regenerates them from the run
(:meth:`TickRun.times`), finds the autoscaler's next decision tick on
its chain, and folds the autoscaler's idle samples in one digest
update.  The oracles are the Python loops these replaced: each tick
plus the loop's waits, in order, plus its interval is the next tick,
and each sample is packed on its own.  Both sides must agree bit for
bit on starts up to 1e9 s, intervals from 0.01 to 500 s, 0-3 waits and
edges placed exactly on a tick, one ulp either side of it, or between
ticks, with blocks small enough that one chain spans several.

The periodic loops record into a :class:`TickLog`: live ticks as
one-tick runs, quiet windows as the runs they skipped.  Its expansion
must be the per-tick ``(value, t)`` list a recorder that stepped every
tick writes, and the chaos probes' recovery scoring over runs must
agree with the per-probe list filter it replaced.
"""

from __future__ import annotations

import hashlib
import math
from types import SimpleNamespace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosOrchestrator
from repro.fleet import AutoscalerConfig
from repro.fleet.autoscaler import _SAMPLE, Autoscaler
from repro.simkernel import ticks as chains
from repro.simkernel.ticks import TickLog, TickRun


def _stepped(first, waits, interval, edge):
    """The governor's old walk: (skipped ticks, live tick)."""
    t, skipped = first, []
    while t < edge:
        end = t
        for delay in waits:
            end += delay
        end += interval
        if end >= edge:
            break
        skipped.append(t)
        t = end
    return skipped, t


def _chain(first, waits, interval, n):
    """``n + 1`` ticks from ``first`` by repeated addition."""
    ticks = [first]
    for _ in range(n):
        t = ticks[-1]
        for delay in waits:
            t += delay
        ticks.append(t + interval)
    return ticks


_FIRST = st.one_of(st.floats(0.0, 1e9), st.integers(0, 10**9).map(float))
_INTERVAL = st.one_of(st.floats(0.01, 500.0),
                      st.sampled_from((0.01, 0.1, 15.0, 30.0, 120.0, 300.0)))
_WAITS = st.lists(st.floats(0.0, 5.0), max_size=3).map(tuple)
#: entries per cumulative sum: the default, and sizes that split a chain
_BLOCKS = st.sampled_from((chains.BLOCK, 1, 2, 3, 5, 64))


@st.composite
def _windows(draw):
    first, interval, waits = draw(_FIRST), draw(_INTERVAL), draw(_WAITS)
    ticks = _chain(first, waits, interval, draw(st.integers(0, 300)))
    tick = ticks[-1]
    edge = draw(st.sampled_from((
        tick, math.nextafter(tick, math.inf), math.nextafter(tick, -math.inf),
        tick + draw(st.floats(0.0, 1.0)) * interval)))
    return first, waits, interval, edge, draw(_BLOCKS)


@given(window=_windows())
@settings(max_examples=400, deadline=None)
@example(window=(0.0, (), 0.1, 0.30000000000000004, 1))
@example(window=(1e9, (1e-3, 2e-3), 0.01, 1e9 + 1.0, 3))
@example(window=(5.0, (), 1.0, 5.0, chains.BLOCK))
def test_tick_run_matches_the_stepped_walk(window):
    first, waits, interval, edge, block = window
    skipped, live = _stepped(first, waits, interval, edge)
    with mock.patch.object(chains, "BLOCK", block):
        run, tick = TickRun.before(first, (*waits, interval), edge)
        assert run.times().tolist() == skipped
        assert list(run) == skipped
    assert len(run) == len(skipped)
    assert all(type(t) is float for t in run)
    assert tick == live and type(tick) is float
    # times() sums in blocks of its own; every size lands on one chain.
    assert run.times().tolist() == skipped


def _autoscaler(replicas, cfg, tick, streak, last_down, last_up):
    fleet = SimpleNamespace(kernel=None, replicas=[None] * replicas)
    scaler = Autoscaler(fleet, cfg)
    scaler._tick, scaler._low_streak = tick, streak
    scaler._last_down, scaler._last_up = last_down, last_up
    return scaler


def _stepped_decision(scaler, bound):
    """``next_decision_tick``'s old loop."""
    cfg = scaler.config
    n = len(scaler.fleet.replicas)
    t = scaler._tick + cfg.interval
    if n < cfg.min_replicas:
        return t
    if n == cfg.min_replicas or cfg.scale_down_threshold <= 0:
        return math.inf
    streak = scaler._low_streak
    while t < bound:
        streak += 1
        if (streak >= cfg.low_streak
                and t - scaler._last_down >= cfg.down_cooldown
                and t - scaler._last_up >= cfg.down_cooldown):
            return t
        t += cfg.interval
    return math.inf


_PAST = st.one_of(st.just(-math.inf), st.floats(0.0, 1e9))


@given(tick=_FIRST, interval=_INTERVAL,
       low_streak=st.integers(1, 40), streak=st.integers(0, 40),
       cooldown=st.floats(0.0, 5000.0), last_down=_PAST, last_up=_PAST,
       replicas=st.integers(1, 4), span=st.integers(0, 400),
       nudge=st.sampled_from((0.0, -1.0, 1.0)), block=_BLOCKS)
@settings(max_examples=300, deadline=None)
def test_next_decision_tick_matches_the_stepped_loop(
        tick, interval, low_streak, streak, cooldown, last_down, last_up,
        replicas, span, nudge, block):
    cfg = AutoscalerConfig(min_replicas=2, max_replicas=4,
                           interval=interval, low_streak=low_streak,
                           down_cooldown=cooldown)
    scaler = _autoscaler(replicas, cfg, tick, streak, last_down, last_up)
    bound = _chain(tick, (), interval, span)[-1]
    if nudge:
        bound = math.nextafter(bound, nudge * math.inf)
    with mock.patch.object(chains, "BLOCK", block):
        assert scaler.next_decision_tick(bound) == \
            _stepped_decision(scaler, bound)


@given(first=_FIRST, interval=_INTERVAL, count=st.integers(1, 3000),
       outstanding=st.integers(0, 2**40), healthy=st.integers(0, 8),
       replicas=st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_idle_samples_fold_as_packed_one_by_one(
        first, interval, count, outstanding, healthy, replicas):
    cfg = AutoscalerConfig(interval=interval)
    scaler = _autoscaler(replicas, cfg, 0.0, 0, -math.inf, -math.inf)
    scaler.fleet.router_app = SimpleNamespace(
        outstanding=outstanding, healthy_backends=healthy)
    run = TickRun(first, (interval,), count)
    scaler._play_idle(run)
    oracle = hashlib.sha256()
    for t in _chain(first, (), interval, count - 1):
        oracle.update(_SAMPLE.pack(t, replicas, outstanding, healthy))
    assert scaler.digest() == oracle.hexdigest()
    assert scaler._tick == list(run)[-1]
    assert type(scaler._tick) is float
    assert scaler._low_streak == count


@st.composite
def _logs(draw, values):
    """A loop's chain cut into live ticks and skipped runs: the
    :class:`TickLog` quiet-play records, and the per-tick ``(value, t)``
    list stepping records."""
    first, interval, waits = draw(_FIRST), draw(_INTERVAL), draw(_WAITS)
    steps = (*waits, interval)
    # Each piece is a live tick (0) or a quiet window of that many ticks.
    pieces = draw(st.lists(st.integers(0, 40), max_size=12))
    ticks = _chain(first, waits, interval, sum(max(n, 1) for n in pieces))
    log, stepped, i = TickLog(), [], 0
    for n in pieces:
        value = draw(values)
        if n:
            log.append((value, TickRun(ticks[i], steps, n)))
        else:
            log.append((value, TickRun(ticks[i])))
        stepped += [(value, t) for t in ticks[i:i + max(n, 1)]]
        i += max(n, 1)
    return log, stepped, ticks


@given(case=_logs(st.integers()), block=_BLOCKS)
@settings(max_examples=300, deadline=None)
def test_tick_log_expands_to_the_stepped_record(case, block):
    log, stepped, _ = case
    with mock.patch.object(chains, "BLOCK", block):
        expanded = list(log.expand())
    assert expanded == stepped
    assert all(type(t) is float for _, t in expanded)
    assert sum(len(run) for _, run in log) == len(stepped)


def _listed_recovery_window(probes, t0, t1):
    """The recovery scoring over one record per probe that the run
    scoring replaced: ``probes`` is ``[((infra_ok, slo_ok), t), ...]``."""
    window = [(ok, t) for ok, t in probes if t0 <= t < t1]
    bad = [t for (infra_ok, slo_ok), t in window
           if not (infra_ok and slo_ok)]
    if not bad:
        return None, t0
    good_after = [t for _, t in window if t > bad[-1]]
    if good_after:
        return bad[0], good_after[0]
    return bad[0], None


_READINGS = st.sampled_from([(True, True), (True, False), (False, True),
                             (False, False)])


@st.composite
def _recovery_cases(draw):
    log, stepped, ticks = draw(_logs(_READINGS))
    # The end-of-run confirmation probe can share the last tick's time.
    if stepped and draw(st.booleans()):
        t = stepped[-1][1]
        reading = draw(_READINGS)
        log.append((reading, TickRun(t)))
        stepped.append((reading, t))

    def edge():
        tick = draw(st.sampled_from(ticks))
        return draw(st.sampled_from((
            tick, math.nextafter(tick, math.inf),
            math.nextafter(tick, -math.inf),
            tick + draw(st.floats(0.0, 1.0)) * (ticks[-1] - ticks[0]))))

    t0, t1 = sorted((edge(), edge()))
    return log, stepped, t0, t1


@given(case=_recovery_cases())
@settings(max_examples=400, deadline=None)
def test_recovery_window_over_runs_matches_the_probe_list(case):
    log, stepped, t0, t1 = case
    orchestrator = SimpleNamespace(probes=log)
    assert ChaosOrchestrator._recovery_window(orchestrator, t0, t1) == \
        _listed_recovery_window(stepped, t0, t1)
