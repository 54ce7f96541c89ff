"""Edge cases of SimKernel.run/at and Process.interrupt races."""

from __future__ import annotations

import pytest

from repro.errors import StateError
from repro.simkernel import Interrupted, SimKernel


# -- run(until=<float>) -------------------------------------------------------

def test_event_exactly_at_until_is_processed(kernel):
    seen = []

    def proc(env):
        yield env.timeout(5.0)
        seen.append(env.now)

    kernel.spawn(proc(kernel))
    kernel.run(until=5.0)
    assert seen == [5.0]
    assert kernel.now == 5.0


def test_run_until_with_empty_heap_just_advances_clock(kernel):
    kernel.run(until=123.0)
    assert kernel.now == 123.0
    # idempotent: running to the same instant again is a no-op
    kernel.run(until=123.0)
    assert kernel.now == 123.0


def test_run_until_current_time_processes_due_events(kernel):
    fired = []
    ev = kernel.event()
    ev.add_callback(lambda e: fired.append(kernel.now))
    ev.succeed()
    kernel.run(until=0.0)
    assert fired == [0.0]


def test_run_until_event_with_empty_heap_raises(kernel):
    target = kernel.event()     # never succeeds, nothing scheduled
    with pytest.raises(StateError, match="ran out of events"):
        kernel.run(until=target)


def test_step_on_empty_heap_raises(kernel):
    with pytest.raises(StateError, match="no more events"):
        kernel.step()


# -- at() ---------------------------------------------------------------------

def test_at_in_the_past_fires_immediately(kernel):
    kernel.run(until=100.0)
    seen = []

    def proc(env):
        yield env.at(30.0)          # 70 seconds ago
        seen.append(env.now)

    kernel.spawn(proc(kernel))
    kernel.run()
    assert seen == [100.0]          # fired now, not by travelling back


def test_at_future_fires_at_absolute_time(kernel):
    kernel.run(until=10.0)
    seen = []

    def proc(env):
        yield env.at(25.0)
        seen.append(env.now)

    kernel.spawn(proc(kernel))
    kernel.run()
    assert seen == [25.0]


def test_at_and_call_at_land_on_the_exact_float(kernel):
    """Absolute scheduling keys the heap on ``when`` itself: here
    ``now + (when - now)`` is one ulp below ``when``."""
    now, when = 26.09886950140617, 6142.246507682167
    assert now + (when - now) != when
    kernel.run(until=now)
    seen = []

    def proc(env):
        yield env.at(when)
        seen.append(env.now)

    kernel.spawn(proc(kernel))
    kernel.call_at(when, lambda _: seen.append(kernel.now))
    kernel.run()
    assert seen == [when, when]


# -- interrupt races ----------------------------------------------------------

def test_interrupt_after_completion_race_preserves_value(kernel):
    """The kill arriving in the same tick the job finishes is a no-op."""
    def victim(env):
        yield env.timeout(5.0)
        return "finished"

    proc = kernel.spawn(victim(kernel))

    def killer(env):
        yield env.timeout(5.0)      # same instant victim completes
        proc.interrupt("too late")

    kernel.spawn(killer(kernel))
    kernel.run()
    assert proc.ok
    assert proc._value == "finished"


def test_interrupt_detaches_from_waited_event(kernel):
    """After an interrupt, the originally-awaited event firing later must
    not resume the process a second time."""
    resumes = []

    def victim(env):
        try:
            yield env.timeout(50.0)
            resumes.append(("timeout", env.now))
        except Interrupted as exc:
            resumes.append(("interrupted", env.now, exc.cause))
            yield env.timeout(100.0)
            resumes.append(("after", env.now))

    proc = kernel.spawn(victim(kernel))

    def killer(env):
        yield env.timeout(10.0)
        proc.interrupt("maintenance")

    kernel.spawn(killer(kernel))
    kernel.run()
    assert resumes == [("interrupted", 10.0, "maintenance"),
                       ("after", 110.0)]


def test_second_interrupt_after_completion_is_noop(kernel):
    """Two kills in one tick: the first lands, the victim finishes in
    response, and the second must see a completed process and no-op."""
    hits = []

    def victim(env):
        try:
            yield env.timeout(50.0)
        except Interrupted:
            hits.append(env.now)
        return "ok"                 # finishes while kill #2 is in flight

    proc = kernel.spawn(victim(kernel))

    def killer(env):
        yield env.timeout(10.0)
        proc.interrupt()
        proc.interrupt()

    kernel.spawn(killer(kernel))
    kernel.run()
    assert hits == [10.0]
    assert proc.ok and proc._value == "ok"


def test_interrupting_completed_process_keeps_it_successful():
    kernel = SimKernel(seed=0)

    def quick(env):
        yield env.timeout(1.0)
        return 42

    proc = kernel.spawn(quick(kernel))
    kernel.run()
    proc.interrupt("way too late")
    kernel.run()
    assert proc.ok and proc._value == 42
