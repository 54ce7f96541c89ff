"""Dispatch semantics that queue no heap entry nobody waits on.

- a process that finishes unwatched completes in place;
- ``SimKernel.start`` runs a process's first step inline (no boot event);
- ``Process.rearm`` moves a bare-delay sleep in place (the engine's
  nudge), and the entry it leaves behind wakes nobody;
- ``Request.first_token`` is created only when someone asks for it.
"""

from __future__ import annotations

import pytest

from repro.hardware import gpu_spec
from repro.models import llama4_scout
from repro.simkernel import Interrupted, SimKernel
from repro.vllm import (EngineArgs, LLMEngine, PerfModel, PerfProfile,
                        RequestSpec)


def _quick(env, value="done"):
    yield env.timeout(1.0)
    return value


# -- in-place completion --------------------------------------------------------

def test_unwatched_process_completes_without_a_heap_entry(kernel):
    proc = kernel.spawn(_quick(kernel))
    kernel.step()                   # boot
    kernel.step()                   # the timeout: the generator returns
    assert proc.processed and proc.ok and proc.value == "done"
    assert kernel.peek() == float("inf")


def test_yield_on_a_finished_process_resumes_at_once(kernel):
    proc = kernel.spawn(_quick(kernel))
    kernel.run(until=5.0)
    assert proc.processed
    seen = []

    def waiter(env):
        value = yield proc
        seen.append((env.now, value))

    kernel.spawn(waiter(kernel))
    kernel.run()
    assert seen == [(5.0, "done")]


def test_run_until_a_finished_process_returns_its_value(kernel):
    proc = kernel.spawn(_quick(kernel, 7))
    kernel.run()
    assert kernel.run(until=proc) == 7


def test_watched_process_still_completes_through_the_heap(kernel):
    proc = kernel.spawn(_quick(kernel))
    seen = []
    proc.add_callback(lambda ev: seen.append(ev.value))
    kernel.run(until=1.0)
    assert seen == ["done"]


def test_interrupt_after_in_place_completion_is_a_noop(kernel):
    proc = kernel.spawn(_quick(kernel))
    kernel.run()
    proc.interrupt("late kill")
    assert kernel.peek() == float("inf")    # no delivery tick queued
    assert proc.ok and proc.value == "done"


def test_unwatched_failure_still_raises_through_run_until(kernel):
    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    proc = kernel.spawn(boom(kernel))
    kernel.run()                    # nobody waits: nothing raises here
    assert proc.processed and proc.ok is False
    with pytest.raises(ValueError, match="boom"):
        kernel.run(until=proc)


def test_interrupt_reaches_a_waiting_process(kernel):
    caught = []

    def sleeper(env):
        try:
            yield env.timeout(10.0)
        except Interrupted as exc:
            caught.append((env.now, exc.cause))

    proc = kernel.spawn(sleeper(kernel))
    kernel.run(until=2.0)
    proc.interrupt("stop")
    kernel.run()
    assert caught == [(2.0, "stop")]
    assert proc.processed and proc.ok


# -- inline start -----------------------------------------------------------------

def test_start_runs_the_first_step_inline(kernel):
    steps = []

    def worker(env):
        steps.append(("first", env.now))
        yield env.timeout(2.0)
        steps.append(("second", env.now))

    proc = kernel.start(worker(kernel), name="w")
    assert steps == [("first", 0.0)]       # before any dispatch
    assert proc.name == "w" and proc.is_alive
    kernel.run()
    assert steps == [("first", 0.0), ("second", 2.0)]
    assert proc.processed


def test_start_queues_no_boot_event(kernel):
    def worker(env):
        yield env.timeout(3.0)

    kernel.start(worker(kernel))
    assert kernel.peek() == 3.0     # only the worker's own timeout


def test_start_of_a_generator_that_returns_at_once(kernel):
    def instant(env):
        return "now"
        yield  # pragma: no cover - makes this a generator

    proc = kernel.start(instant(kernel))
    assert proc.processed and proc.value == "now"
    assert kernel.peek() == float("inf")


# -- re-armed sleep ----------------------------------------------------------------

def test_rearmed_sleep_fires_at_its_new_deadline(kernel):
    seen = []

    def sleeper(env):
        value = yield 4.0
        seen.append((env.now, value))

    proc = kernel.spawn(sleeper(kernel))
    kernel.run(until=1.0)
    proc.rearm(5.0)                 # past the old deadline: fires at 6
    kernel.run(until=4.0)           # the old entry resumes nobody
    assert seen == []
    kernel.run()
    assert seen == [(6.0, None)]


def test_woken_sleep_resumes_at_now_and_its_deadline_entry_is_a_noop(kernel):
    seen = []

    def sleeper(env):
        yield 10.0
        seen.append(env.now)
        yield 20.0
        seen.append(env.now)

    proc = kernel.spawn(sleeper(kernel))
    kernel.run(until=3.0)
    proc.rearm(0.0)
    kernel.run(until=3.0)
    assert seen == [3.0]
    kernel.run(until=10.0)      # the stale deadline entry: nothing resumes
    assert seen == [3.0]
    kernel.run()
    assert seen == [3.0, 23.0]


def test_wake_at_the_deadline_instant_loses_to_the_deadline():
    """A nudge queued at a jump's deadline instant, ahead of the jump's
    own wake, leaves the jump whole: all its iterations apply at the
    deadline, as when nothing nudged it."""
    def jump_of(kernel, engine):
        engine.submit(RequestSpec(200, 64))
        while engine._jump is None:
            kernel.step()
        return engine._jump

    alone = SimKernel(seed=1)
    engine = _engine(alone)
    started, deadline, j, _, _ = jump_of(alone, engine)
    before = engine.iterations
    alone.run(until=deadline)
    assert engine.iterations == before + j

    nudged = SimKernel(seed=1)
    engine = _engine(nudged)
    seen = []

    def at_deadline(_arg):
        seen.append(engine._jump is not None)
        engine.submit(RequestSpec(200, 8))      # submit() nudges
        seen.append(engine._jump is not None)

    nudged.call_at(deadline, at_deadline)       # queued before the jump
    assert jump_of(nudged, engine)[:3] == (started, deadline, j)
    nudged.run(until=deadline)
    assert seen == [True, True]                 # the nudge did nothing
    assert engine.iterations == before + j and engine._jump is None


def test_wake_after_the_sleep_fired_is_a_noop(kernel):
    gate = kernel.event()

    def sleeper(env):
        yield 1.0
        yield gate

    proc = kernel.spawn(sleeper(kernel))
    kernel.run()
    proc.rearm(0.0)                 # waits on an event, not a delay
    assert kernel.peek() == float("inf")
    gate.succeed()
    kernel.run()
    assert proc.processed
    proc.rearm(0.0)                 # finished
    assert kernel.peek() == float("inf")


def test_interrupt_during_a_sleep_detaches_cleanly(kernel):
    caught = []
    gate = kernel.event()

    def sleeper(env):
        try:
            yield 10.0
        except Interrupted:
            caught.append(env.now)
        yield gate
        caught.append(env.now)

    proc = kernel.spawn(sleeper(kernel))
    kernel.run(until=1.0)
    proc.rearm(5.0)                 # two queued entries now: 6 and 10
    kernel.run(until=2.0)
    proc.interrupt()
    kernel.run(until=2.0)
    assert caught == [2.0]
    proc.rearm(0.0)                 # a late wake resumes nobody
    assert kernel.peek() == 6.0     # the stale entries are still queued
    kernel.run(until=10.0)
    assert caught == [2.0]
    gate.succeed()
    kernel.run()
    assert caught == [2.0, 10.0]
    assert proc.processed


def test_a_refused_rearm_leaves_the_sleep_in_place(kernel):
    seen = []

    def sleeper(env):
        yield 5.0
        seen.append(env.now)

    proc = kernel.spawn(sleeper(kernel))
    kernel.run(until=1.0)
    for bad in (-0.5, float("nan")):
        with pytest.raises(ValueError, match="negative or NaN"):
            proc.rearm(bad)
    kernel.run()
    assert seen == [5.0]


# -- lazy first token -------------------------------------------------------------

def _engine(kernel: SimKernel) -> LLMEngine:
    card = llama4_scout()
    args = EngineArgs(model=card.name, tensor_parallel_size=4,
                      max_model_len=65536)
    engine = LLMEngine(kernel, card,
                       PerfModel(card, gpu_spec("H100-SXM-80G"), 4,
                                 profile=PerfProfile()),
                       args, 200_000)
    engine.start()
    return engine


def test_first_token_asked_before_it_fires_at_the_first_token(kernel):
    engine = _engine(kernel)
    request = engine.submit(RequestSpec(200, 8))
    at = kernel.run(until=request.first_token)
    assert at == request.first_token_at == kernel.now
    assert request.finished_at is None
    kernel.run(until=request.done)
    assert request.first_token_at == at


def test_first_token_asked_after_it_is_already_triggered(kernel):
    engine = _engine(kernel)
    request = engine.submit(RequestSpec(200, 8))
    kernel.run(until=request.done)
    first = request.first_token
    assert first.triggered and first.value == request.first_token_at
    assert request.first_token is first     # one event, created once
    assert kernel.run(until=first) == request.first_token_at


def test_first_token_unwatched_costs_no_event(kernel):
    engine = _engine(kernel)
    request = engine.submit(RequestSpec(200, 8))
    kernel.run(until=request.done)
    assert request._first_token is None
    assert request.submitted_at < request.first_token_at \
        <= request.finished_at


def test_first_token_on_a_disagg_decode_leg(kernel):
    engine = _engine(kernel)
    request = engine.submit(RequestSpec(500, 20, prefill_done=True,
                                        tokens_generated=1))
    assert request._first_token is None
    assert request.first_token_at == kernel.now
    assert request.first_token.triggered
    assert kernel.run(until=request.first_token) == request.first_token_at
    kernel.run(until=request.done)
    assert request.first_token_at == request.submitted_at   # zero TTFT
