"""Kernel-level fast-forward primitives and horizon edge cases.

``advance_to`` / ``call_in`` / ``call_at`` / ``Callback`` are the flat
scheduling surface the fleet fast-forward rides on; ``run(until=float)``
routes through ``advance_to``.  The contract pinned here: events at
exactly the horizon are processed (including ones scheduled *at* the
horizon by horizon-time callbacks), the clock lands exactly on the
horizon, and afterwards ``peek() > now`` always holds.
"""

import pytest

from repro.simkernel import Callback, Interrupted, SimKernel


@pytest.fixture
def kernel():
    return SimKernel(seed=1)


# -- run(until=float) / advance_to ------------------------------------------------


def test_horizon_event_chain_at_exact_horizon(kernel):
    """A horizon-time callback that schedules another horizon-time event
    must see that event processed too, not stranded past the jump."""
    fired = []
    kernel.call_in(5.0, lambda _: (fired.append("a"),
                                   kernel.call_in(0.0,
                                                  lambda _: fired.append("b"))))
    kernel.call_in(7.0, lambda _: fired.append("late"))
    kernel.run(until=5.0)
    assert fired == ["a", "b"]
    assert kernel.now == 5.0
    assert kernel.peek() == 7.0          # strictly greater than now


def test_advance_to_lands_on_horizon_with_empty_heap(kernel):
    kernel.advance_to(123.5)
    assert kernel.now == 123.5
    assert kernel.peek() == float("inf")


def test_advance_to_past_raises(kernel):
    kernel.advance_to(10.0)
    with pytest.raises(ValueError):
        kernel.advance_to(9.0)


def test_run_until_float_preserves_pending_events(kernel):
    fired = []
    kernel.call_in(3.0, fired.append)
    kernel.call_in(15.0, fired.append)
    kernel.run(until=10.0)
    assert fired == [None]
    assert (kernel.now, kernel.peek()) == (10.0, 15.0)
    kernel.run(until=15.0)               # resume picks the survivor up
    assert len(fired) == 2


# -- call_in / call_at / Callback ------------------------------------------------


def test_call_in_negative_delay_raises(kernel):
    with pytest.raises(ValueError):
        kernel.call_in(-1.0, lambda _: None)


def test_call_at_in_the_past_is_clamped_to_now(kernel):
    kernel.advance_to(50.0)
    seen = []
    kernel.call_at(10.0, seen.append, "x")
    kernel.step()
    assert seen == ["x"]
    assert kernel.now == 50.0


def test_callback_carries_arg_and_wakes_waiters(kernel):
    order = []
    cb = kernel.call_in(2.0, lambda arg: order.append(("fn", arg)), "payload")
    assert isinstance(cb, Callback)
    cb.add_callback(lambda ev: order.append(("waiter", ev is cb)))

    def proc(env):
        yield cb
        order.append(("process", env.now))

    kernel.spawn(proc(kernel))
    kernel.run()
    assert order[0] == ("fn", "payload")
    assert ("waiter", True) in order
    assert ("process", 2.0) in order


def test_callbacks_and_timeouts_interleave_in_schedule_order(kernel):
    """Same-timestamp events fire in scheduling (seq) order.  A
    ``call_in`` enters the heap at creation; a spawned process's first
    timeout only enters when its boot event runs — so the callback
    lands ahead of both processes here, and the processes keep their
    spawn order relative to each other."""
    order = []

    def proc(env, tag):
        yield env.timeout(5.0)
        order.append(tag)

    kernel.spawn(proc(kernel, "p1"))
    kernel.call_in(5.0, lambda _: order.append("cb"))
    kernel.spawn(proc(kernel, "p2"))
    kernel.run()
    assert order == ["cb", "p1", "p2"]


# -- interrupt while waiting on composites ----------------------------------------


def test_interrupt_inside_any_of_detaches_stale_resume(kernel):
    """Interrupting a process parked on ``any_of`` must detach its
    resume hook from the composite: succeeding a member event later
    cannot re-enter the process (the stale-``_resume`` regression)."""
    gate = kernel.event()
    log = []

    def victim(env):
        try:
            yield env.any_of([gate, env.timeout(100.0)])
            log.append("woke")
        except Interrupted as exc:
            log.append(f"interrupted:{exc.cause}")
            yield env.timeout(5.0)
            log.append("resumed-cleanly")

    proc = kernel.spawn(victim(kernel))

    def chaos(env):
        yield env.timeout(1.0)
        proc.interrupt(cause="drain")
        yield env.timeout(1.0)
        gate.succeed("late")          # must be inert for the victim
    kernel.spawn(chaos(kernel))

    kernel.run()
    assert log == ["interrupted:drain", "resumed-cleanly"]


def test_interrupt_inside_all_of_detaches_stale_resume(kernel):
    first, second = kernel.event(), kernel.event()
    log = []

    def victim(env):
        try:
            yield env.all_of([first, second])
            log.append("woke")
        except Interrupted:
            log.append("interrupted")

    proc = kernel.spawn(victim(kernel))

    def chaos(env):
        first.succeed(1)
        yield env.timeout(1.0)
        proc.interrupt()
        yield env.timeout(1.0)
        second.succeed(2)             # completes the AllOf post-interrupt
    kernel.spawn(chaos(kernel))

    kernel.run()
    assert log == ["interrupted"]
    assert proc.processed


# -- peek(ignore=...): the quiet-window edge ------------------------------------

TICK = object()


def test_peek_ignore_skips_entries_carrying_the_value(kernel):
    kernel.at(5.0, TICK)
    kernel.at(6.0, TICK)
    kernel.timeout(7.0)
    assert kernel.peek() == 5.0
    assert kernel.peek(ignore=TICK) == 7.0


def test_peek_ignore_counts_callbacks_and_plain_timeouts(kernel):
    kernel.at(1.0, TICK)
    kernel.call_at(4.0, lambda _: None)
    assert kernel.peek(ignore=TICK) == 4.0
    kernel.timeout(3.0)
    assert kernel.peek(ignore=TICK) == 3.0


def test_peek_ignore_counts_a_woken_sleeps_stale_deadline(kernel):
    """The deadline entry an early wake leaves behind is a no-op when it
    comes up, but it still bounds the edge: earlier, never later."""
    sleep = kernel.sleep(10.0)
    kernel.call_at(2.0, lambda _: sleep.wake())
    kernel.at(20.0, TICK)
    kernel.run(until=3.0)
    assert sleep.processed and sleep.woke
    assert kernel.peek(ignore=TICK) == 10.0


def test_peek_ignore_is_inf_on_an_empty_or_ticks_only_heap(kernel):
    assert kernel.peek(ignore=TICK) == float("inf")
    kernel.at(5.0, TICK)
    assert kernel.peek(ignore=TICK) == float("inf")
    assert kernel.peek() == 5.0
