"""Unit tests for the discrete-event kernel core."""

from __future__ import annotations

import pytest

from repro.errors import StateError
from repro.simkernel import Event, Interrupted, SimKernel


def test_time_starts_at_zero(kernel):
    assert kernel.now == 0.0


def test_timeout_advances_clock(kernel):
    seen = []

    def proc(env):
        yield env.timeout(5.0)
        seen.append(env.now)
        yield env.timeout(2.5)
        seen.append(env.now)

    kernel.spawn(proc(kernel))
    kernel.run()
    assert seen == [5.0, 7.5]


def test_run_until_time_stops_clock(kernel):
    def proc(env):
        for _ in range(10):
            yield env.timeout(1.0)

    kernel.spawn(proc(kernel))
    kernel.run(until=3.5)
    assert kernel.now == 3.5
    kernel.run()
    assert kernel.now == 10.0


def test_run_until_event_returns_value(kernel):
    def proc(env):
        yield env.timeout(1.0)
        return "done"

    p = kernel.spawn(proc(kernel))
    assert kernel.run(until=p) == "done"
    assert kernel.now == 1.0


def test_run_until_failed_event_raises(kernel):
    def proc(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    p = kernel.spawn(proc(kernel))
    with pytest.raises(ValueError, match="boom"):
        kernel.run(until=p)


def test_same_time_events_fifo_order(kernel):
    order = []

    def proc(env, label):
        yield env.timeout(1.0)
        order.append(label)

    for label in "abc":
        kernel.spawn(proc(kernel, label))
    kernel.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_process(kernel):
    log = []

    def child(env):
        yield env.timeout(3.0)
        return 42

    def parent(env):
        value = yield env.spawn(child(env))
        log.append((env.now, value))

    kernel.spawn(parent(kernel))
    kernel.run()
    assert log == [(3.0, 42)]


def test_child_exception_propagates_to_parent(kernel):
    def child(env):
        yield env.timeout(1.0)
        raise RuntimeError("child died")

    def parent(env):
        try:
            yield env.spawn(child(env))
        except RuntimeError as exc:
            return f"caught {exc}"
        return "not caught"

    p = kernel.spawn(parent(kernel))
    assert kernel.run(until=p) == "caught child died"


def test_event_succeed_wakes_waiter(kernel):
    ev = kernel.event()
    got = []

    def waiter(env):
        value = yield ev
        got.append((env.now, value))

    def trigger(env):
        yield env.timeout(4.0)
        ev.succeed("hello")

    kernel.spawn(waiter(kernel))
    kernel.spawn(trigger(kernel))
    kernel.run()
    assert got == [(4.0, "hello")]


def test_event_double_trigger_rejected(kernel):
    ev = kernel.event()
    ev.succeed(1)
    with pytest.raises(StateError):
        ev.succeed(2)
    with pytest.raises(StateError):
        ev.fail(ValueError("x"))


def test_event_fail_requires_exception(kernel):
    ev = kernel.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_interrupt_wakes_waiting_process(kernel):
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupted as intr:
            log.append((env.now, intr.cause))

    def killer(env, victim):
        yield env.timeout(2.0)
        victim.interrupt(cause="maintenance")

    victim = kernel.spawn(sleeper(kernel))
    kernel.spawn(killer(kernel, victim))
    kernel.run()
    assert log == [(2.0, "maintenance")]


def test_interrupt_finished_process_is_noop(kernel):
    def quick(env):
        yield env.timeout(1.0)

    p = kernel.spawn(quick(kernel))
    kernel.run()
    p.interrupt()  # must not raise


def test_yield_non_event_fails_process(kernel):
    # A number is a bare-delay wait (``yield 2.5``); anything else that
    # is not an Event is a programming error.
    def bad(env):
        yield "42"  # type: ignore[misc]

    p = kernel.spawn(bad(kernel))
    kernel.run()
    assert p.ok is False
    assert isinstance(p.value, TypeError)


def test_negative_timeout_rejected(kernel):
    with pytest.raises(ValueError):
        kernel.timeout(-1.0)


def test_run_until_past_rejected(kernel):
    kernel.spawn(iter([]))  # type: ignore[arg-type]
    def proc(env):
        yield env.timeout(5.0)
    kernel.spawn(proc(kernel))
    kernel.run(until=5.0)
    with pytest.raises(ValueError):
        kernel.run(until=1.0)


def test_any_of_first_wins(kernel):
    def fast(env):
        yield env.timeout(1.0)
        return "fast"

    def slow(env):
        yield env.timeout(5.0)
        return "slow"

    def waiter(env):
        result = yield env.any_of([env.spawn(fast(env)), env.spawn(slow(env))])
        return sorted(result.values())

    p = kernel.spawn(waiter(kernel))
    assert kernel.run(until=p) == ["fast"]
    assert kernel.now == 1.0


def test_all_of_waits_for_all(kernel):
    def worker(env, d, v):
        yield env.timeout(d)
        return v

    def waiter(env):
        evs = [env.spawn(worker(env, d, d)) for d in (3.0, 1.0, 2.0)]
        result = yield env.all_of(evs)
        return sorted(result.values())

    p = kernel.spawn(waiter(kernel))
    assert kernel.run(until=p) == [1.0, 2.0, 3.0]
    assert kernel.now == 3.0


def test_all_of_fails_fast(kernel):
    def ok(env):
        yield env.timeout(10.0)

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("nope")

    def waiter(env):
        try:
            yield env.all_of([env.spawn(ok(env)), env.spawn(bad(env))])
        except RuntimeError:
            return env.now

    p = kernel.spawn(waiter(kernel))
    assert kernel.run(until=p) == 1.0


def test_empty_all_of_succeeds_immediately(kernel):
    cond = kernel.all_of([])
    assert cond.triggered


def test_peek(kernel):
    assert kernel.peek() == float("inf")
    kernel.timeout(7.0)
    assert kernel.peek() == 0.0 or kernel.peek() == 7.0  # timeout scheduled at +7

    # More precisely: a fresh kernel with one timeout pending peeks at 7.
    k2 = SimKernel()
    k2.timeout(7.0)
    assert k2.peek() == 7.0


def test_trace_records_time_ordering(kernel):
    kernel.trace.retain = True

    def proc(env):
        env.trace.emit("tick", n=1)
        yield env.timeout(2.0)
        env.trace.emit("tick", n=2)

    kernel.spawn(proc(kernel))
    kernel.run()
    recs = kernel.trace.of_kind("tick")
    assert [r.time for r in recs] == [0.0, 2.0]
    assert [r.n for r in recs] == [1, 2]
