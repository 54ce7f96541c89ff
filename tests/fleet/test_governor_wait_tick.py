"""``FleetFastForward.wait_tick``: the one wait every periodic loop uses.

Two contracts on a started, idle fleet: a loop whose stop has already
fired leaves without scheduling anything or touching the quiet-window
edge, and inside a quiet window the loop's idle body receives the
skipped tick times, in chain order, before the loop waits for its live
tick.
"""

import math

from repro.campaign import ScenarioSpec, SiteSpec
from repro.fleet import AutoscalerConfig, Fleet

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"


def _started_fleet():
    fleet = Fleet(ScenarioSpec(
        seed=3, model=QUANT, autoscaler=AutoscalerConfig(min_replicas=1),
        site=SiteSpec(hops_nodes=6, eldorado_nodes=2, goodall_nodes=3,
                      cee_nodes=1)))
    kernel = fleet.kernel
    kernel.run(until=kernel.spawn(fleet.start()))
    assert fleet.ff.quiet()
    return kernel, fleet


def _record_next_tick(fleet) -> list:
    """Wrap ``fleet.ff.next_tick`` to keep every plan it returns."""
    plans = []
    next_tick = fleet.ff.next_tick

    def recorded(*args, **kwargs):
        plan = next_tick(*args, **kwargs)
        plans.append(plan)
        return plan

    fleet.ff.next_tick = recorded
    return plans


def test_fired_stop_returns_false_and_schedules_nothing():
    kernel, fleet = _started_fleet()
    plans = _record_next_tick(fleet)
    stop = kernel.event()
    stop.succeed()
    heap = len(kernel._heap)
    assert fleet.ff._edge == -math.inf
    idled = []
    wait = fleet.ff.wait_tick(2.0, stop, idle=idled.append)
    try:
        next(wait)
    except StopIteration as done:
        live = done.value
    else:  # pragma: no cover - the assertion below reports it
        live = "waited"
    assert live is False
    assert len(kernel._heap) == heap
    assert fleet.ff._edge == -math.inf   # no window was opened
    assert plans == [] and idled == []


def test_quiet_window_plays_skipped_ticks_before_the_live_wait():
    kernel, fleet = _started_fleet()
    plans = _record_next_tick(fleet)
    stop = kernel.event()
    interval = 2.0
    idled = []

    def loop(env):
        start = env.now
        live = yield from fleet.ff.wait_tick(
            interval, stop, idle=lambda ticks: idled.append(
                (env.now, list(ticks))))
        return start, live

    start, live = kernel.run(until=kernel.spawn(loop(kernel)))
    assert live is True
    [(skipped, tick)] = plans
    assert len(skipped) >= 2, "the fleet was not quiet for a window"
    # The idle body ran once, before the wait, on the skipped times.
    assert idled == [(start, list(skipped))]
    # Chain order: each tick is the previous one plus the interval, as
    # stepping's own float chain would place it.
    chain = [start + interval]
    while len(chain) < len(skipped) + 1:
        chain.append(chain[-1] + interval)
    assert list(skipped) == chain[:-1]
    # The loop woke on next_tick's live tick, the next link of the chain.
    assert tick.processed
    assert kernel.now == chain[-1] < fleet.ff._edge
