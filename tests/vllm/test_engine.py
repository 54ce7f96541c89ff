"""Tests for the continuous-batching engine."""

from __future__ import annotations

import pytest

from repro.errors import APIError
from repro.hardware import gpu_spec
from repro.models import llama4_scout
from repro.models.weights import validate_fit
from repro.vllm import (CrashAfterRequests, EngineArgs, FaultPlan, LLMEngine,
                        PerfModel, PerfProfile, RequestSpec)
from repro.vllm.engine import EngineCrash


def _engine(kernel, kv_tokens=None, max_num_seqs=1024, fault_plan=None):
    card = llama4_scout()
    gpu = gpu_spec("H100-SXM-80G")
    args = EngineArgs(model=card.name, tensor_parallel_size=4,
                      max_model_len=65536, max_num_seqs=max_num_seqs)
    kv = kv_tokens if kv_tokens is not None else validate_fit(
        card, gpu, 4, max_model_len=65536)
    perf = PerfModel(card, gpu, 4, profile=PerfProfile())
    engine = LLMEngine(kernel, card, perf, args, kv, fault_plan=fault_plan)
    engine.start()
    return engine


def test_single_request_completes_with_stats(kernel):
    engine = _engine(kernel)
    request = engine.submit(RequestSpec(prompt_tokens=200, max_new_tokens=50))
    finished = kernel.run(until=request.done)
    assert finished.tokens_generated == 50
    assert finished.prompt_tokens == 200
    assert finished.submitted_at < finished.first_token_at \
        < finished.finished_at                    # 0 < ttft < latency
    assert engine.blocks.used_blocks == 0  # all freed


def test_request_too_long_rejected(kernel):
    from repro.errors import ConfigurationError
    engine = _engine(kernel)
    with pytest.raises(APIError, match="max_model_len"):
        engine.submit(RequestSpec(prompt_tokens=60000, max_new_tokens=10000))
    # Bad token counts now fail at spec construction, before submit.
    with pytest.raises(ConfigurationError):
        RequestSpec(prompt_tokens=0, max_new_tokens=5)


def test_batching_improves_throughput(kernel):
    """Total time for 16 concurrent requests << 16x one request."""
    engine = _engine(kernel)
    start = kernel.now
    reqs = [engine.submit(RequestSpec(128, 64)) for _ in range(16)]
    kernel.run(until=kernel.all_of([r.done for r in reqs]))
    t_batch = kernel.now - start

    k2 = pytest.importorskip("repro.simkernel").SimKernel()
    e2 = _engine(k2)
    start = k2.now
    for _ in range(16):
        r = e2.submit(RequestSpec(128, 64))
        k2.run(until=r.done)
    t_serial = k2.now - start
    assert t_batch < t_serial / 4


def test_first_token_fires_before_done(kernel):
    engine = _engine(kernel)
    request = engine.submit(RequestSpec(100, 20))
    kernel.run(until=request.first_token)
    assert request.tokens_generated >= 1
    assert not request.done.triggered
    kernel.run(until=request.done)


def test_kv_pressure_causes_preemption_and_recovery(kernel):
    """With a tiny KV budget, concurrent long requests preempt but all
    finish (recompute preemption)."""
    engine = _engine(kernel, kv_tokens=4096)
    reqs = [engine.submit(RequestSpec(500, 400)) for _ in range(6)]  # 900*6 >> 4096
    kernel.run(until=kernel.all_of([r.done for r in reqs]))
    assert all(r.tokens_generated == 400 for r in reqs)
    assert sum(r.preemptions for r in reqs) > 0
    assert engine.blocks.used_blocks == 0


def test_max_num_seqs_limits_batch(kernel):
    engine = _engine(kernel, max_num_seqs=4)
    reqs = [engine.submit(RequestSpec(64, 32)) for _ in range(12)]
    seen_max = 0

    def watcher(env):
        nonlocal seen_max
        while not all(r.done.triggered for r in reqs):
            seen_max = max(seen_max, len(engine.running))
            yield env.timeout(0.01)

    kernel.spawn(watcher(kernel))
    kernel.run(until=kernel.all_of([r.done for r in reqs]))
    assert seen_max <= 4


def test_fcfs_completion_order_for_equal_lengths(kernel):
    engine = _engine(kernel, max_num_seqs=2)
    reqs = [engine.submit(RequestSpec(64, 32)) for _ in range(6)]
    kernel.run(until=kernel.all_of([r.done for r in reqs]))
    finish_times = [r.finished_at for r in reqs]
    assert finish_times == sorted(finish_times)


def test_crash_fails_outstanding_requests(kernel):
    plan = FaultPlan(CrashAfterRequests(5))
    engine = _engine(kernel, fault_plan=plan)
    reqs = [engine.submit(RequestSpec(64, 1000)) for _ in range(8)]

    def waiter(env, r):
        try:
            yield r.done
            return "ok"
        except EngineCrash:
            return "crashed"

    procs = [kernel.spawn(waiter(kernel, r)) for r in reqs]
    kernel.run()
    outcomes = {p.value for p in procs}
    assert outcomes == {"crashed"}
    assert engine.crashed is not None
    assert plan.fired
    with pytest.raises(APIError, match="crashed"):
        engine.submit(RequestSpec(10, 10))


def test_stop_fails_requests_cleanly(kernel):
    engine = _engine(kernel)
    request = engine.submit(RequestSpec(64, 100000 // 2))

    def stopper(env):
        yield env.timeout(1.0)
        engine.stop()

    def waiter(env):
        try:
            yield request.done
        except APIError as exc:
            return exc.status

    kernel.spawn(stopper(kernel))
    p = kernel.spawn(waiter(kernel))
    assert kernel.run(until=p) == 503


def test_stopped_engine_refuses_submissions(kernel):
    """A request submitted after ``stop()`` is refused with 503, as on
    a crashed engine, instead of queueing forever."""
    engine = _engine(kernel)
    refused = []

    def stop_then_submit(env):
        yield env.timeout(0.5)
        engine.stop()
        yield env.timeout(0.5)
        with pytest.raises(APIError, match="stopped") as exc:
            engine.submit(RequestSpec(32, 8))
        refused.append(exc.value.status)

    kernel.run(until=kernel.spawn(stop_then_submit(kernel)))
    assert refused == [503]
    assert not engine.waiting and not engine.running


def test_engine_idle_then_wakes(kernel):
    engine = _engine(kernel)
    kernel.run(until=10.0)  # idle
    request = engine.submit(RequestSpec(32, 8))
    kernel.run(until=request.done)
    assert request.finished_at > 10.0
