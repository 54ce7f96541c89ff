"""A process sleeps by yielding its delay (``yield 2.5``).

The bare delay queues the process's reusable waker at ``now + delay``:
the heap entry ``yield kernel.timeout(delay)`` would have queued, at
the same ``(time, seq)`` place, so a run resumes in the same order at
the same times whichever form each wait takes.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Interrupted, SimKernel

#: Delays with many ties: small grid values, ints beside equal floats,
#: zero, and a few arbitrary floats.
_DELAYS = st.one_of(
    st.sampled_from([0, 0.0, 0.25, 0.5, 1, 1.0, 2.5, 3]),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False))

#: One process: a list of (delay, bare?, spawn a child after the wait?).
_PROGRAM = st.lists(st.tuples(_DELAYS, st.booleans(), st.booleans()),
                    min_size=1, max_size=6)


def _play(programs, all_timeouts: bool):
    """Run every program; returns the resume log and the final clock.

    Each resume logs ``(process, step, now)``.  A step may spawn a
    one-wait child, so heap entries from different processes
    interleave at equal times.
    """
    kernel = SimKernel()
    log = []

    def child(env, name, delay, bare):
        yield delay if bare and not all_timeouts else env.timeout(delay)
        log.append((name, "child", env.now))

    def proc(env, name, steps):
        for i, (delay, bare, spawn) in enumerate(steps):
            yield delay if bare and not all_timeouts else env.timeout(delay)
            log.append((name, i, env.now))
            if spawn:
                env.spawn(child(env, f"{name}.{i}", delay, not bare))

    for n, steps in enumerate(programs):
        kernel.spawn(proc(kernel, n, steps))
    kernel.run()
    return log, kernel.now


@given(programs=st.lists(_PROGRAM, min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_bare_delays_resume_as_the_all_timeout_oracle(programs):
    assert _play(programs, False) == _play(programs, True)


def test_a_bare_delay_is_an_exact_now_plus_delay(kernel):
    seen = []

    def proc(env):
        yield 0.1
        yield 0.2
        seen.append(env.now)
        yield 3                     # an int is a delay too
        seen.append(env.now)

    kernel.spawn(proc(kernel))
    kernel.run()
    assert seen == [0.1 + 0.2, 0.1 + 0.2 + 3]


def test_a_float_subclass_is_a_delay(kernel):
    seen = []

    def proc(env):
        yield np.float64(0.25)
        seen.append(env.now)

    kernel.spawn(proc(kernel))
    kernel.run()
    assert seen == [0.25]


def test_bool_and_non_numbers_are_still_refused(kernel):
    def bad(env, thing):
        yield thing

    procs = [kernel.spawn(bad(kernel, thing))
             for thing in (True, False, "1.0", None, [1.0])]
    kernel.run()
    for proc in procs:
        assert proc.ok is False and isinstance(proc.value, TypeError)
        assert "non-event" in str(proc.value)


def test_interrupt_during_a_bare_delay_resumes_once(kernel):
    log = []

    def sleeper(env):
        try:
            yield 5.0
            log.append(("woke", env.now))
        except Interrupted as exc:
            log.append(("interrupted", env.now, exc.cause))
        yield 0.5                   # sleeps again at once
        log.append(("slept", env.now))
        yield 10.0                  # past the stale 5.0 entry
        log.append(("done", env.now))

    proc = kernel.spawn(sleeper(kernel))
    kernel.run(until=1.0)
    proc.interrupt("kill")
    kernel.run()
    assert log == [("interrupted", 1.0, "kill"), ("slept", 1.5),
                   ("done", 11.5)]
    assert proc.processed and proc.ok


def test_interrupt_then_stale_entry_at_the_same_instant(kernel):
    """The stale entry comes up while the process waits on the fresh
    waker's entry for the same time: only one resume happens."""
    log = []

    def sleeper(env):
        try:
            yield 2.0
        except Interrupted:
            log.append(("interrupted", env.now))
        yield 1.0                   # due at 2.0, like the stale entry
        log.append(("woke", env.now))

    proc = kernel.spawn(sleeper(kernel))
    kernel.run(until=1.0)
    proc.interrupt()
    kernel.run()
    assert log == [("interrupted", 1.0), ("woke", 2.0)]
    assert proc.ok


def test_peek_ignore_counts_bare_delay_entries(kernel):
    tick = object()

    def sleeper(env):
        yield 4.0

    kernel.at(1.0, tick)
    kernel.spawn(sleeper(kernel))
    kernel.step()                   # the boot: the sleeper queues 4.0
    assert kernel.peek(ignore=tick) == 4.0
    assert kernel.peek() == 1.0


def test_run_until_a_process_asleep_on_a_bare_delay(kernel):
    def sleeper(env):
        yield 2.5
        return "rested"

    proc = kernel.spawn(sleeper(kernel))
    kernel.step()                   # boot: now asleep on the bare delay
    assert kernel.run(until=proc) == "rested"
    assert kernel.now == 2.5


# -- bad delays fail where they are made ------------------------------------------

@pytest.mark.parametrize("delay", [-1.0, -1, math.nan])
def test_a_bad_bare_delay_raises_in_the_process_at_its_yield(kernel, delay):
    seen = []

    def proc(env):
        try:
            yield delay
        except ValueError as exc:
            seen.append(("caught", env.now, str(exc)))
        yield 1.0
        return "recovered"

    p = kernel.spawn(proc(kernel))
    kernel.run()
    assert seen == [("caught", 0.0, f"negative or NaN delay: {delay!r}")]
    assert p.value == "recovered" and kernel.now == 1.0


def test_an_uncaught_bad_bare_delay_fails_the_process(kernel):
    def proc(env):
        yield math.nan

    p = kernel.spawn(proc(kernel))
    kernel.run()
    assert p.ok is False and isinstance(p.value, ValueError)
    assert kernel.now == 0.0


def _on_an_event(env):
    yield env.event()


@pytest.mark.parametrize("make", [
    lambda k: k.timeout(math.nan),
    lambda k: k.start(_on_an_event(k)).rearm(math.nan),
    lambda k: k.call_in(math.nan, print),
    lambda k: k.at(math.nan),
    lambda k: k.call_at(math.nan, print),
    lambda k: k.timeout(-0.5),
    lambda k: k.start(_on_an_event(k)).rearm(-0.5),
    lambda k: k.call_in(-0.5, print),
], ids=["timeout", "rearm", "call_in", "at", "call_at", "timeout-neg",
        "rearm-neg", "call_in-neg"])
def test_a_nan_or_negative_delay_is_refused_where_it_is_made(kernel, make):
    kernel.run(until=1.0)
    with pytest.raises(ValueError, match="negative or NaN"):
        make(kernel)
    assert kernel.peek() == math.inf   # nothing was queued
