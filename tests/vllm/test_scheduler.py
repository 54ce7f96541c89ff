"""Tests for the extracted Scheduler and its pluggable policies.

The policy-swap equivalence tests are the refactor's safety net: with
every request in one priority class (or one prefill chunk), the
priority and chunked policies must reproduce FCFS *bit-identically* —
same tokens, same TTFTs, same finish times — because their decision
rules degenerate to FCFS there.  The pressure tests then pin the
behaviors that are supposed to differ.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hardware import gpu_spec
from repro.models import llama4_scout
from repro.simkernel import SimKernel
from repro.vllm import (ChunkedPrefillPolicy, EngineArgs, FcfsPolicy,
                        LLMEngine, PerfModel, PerfProfile, PriorityPolicy,
                        RequestSpec, Scheduler, make_policy)


def _engine(kernel, policy="fcfs", kv_tokens=200_000, max_num_seqs=1024,
            chunk_tokens=512, coalesce=True):
    card = llama4_scout()
    gpu = gpu_spec("H100-SXM-80G")
    args = EngineArgs(model=card.name, tensor_parallel_size=4,
                      max_model_len=65536, max_num_seqs=max_num_seqs,
                      scheduler_policy=policy, chunk_tokens=chunk_tokens)
    perf = PerfModel(card, gpu, 4, profile=PerfProfile())
    engine = LLMEngine(kernel, card, perf, args, kv_tokens)
    if not coalesce:
        engine.MIN_JUMP = 10 ** 9   # force per-iteration stepping
    engine.start()
    return engine


# Staggered open-loop arrivals: (submit_at, prompt, max_new, priority).
WORKLOAD = [
    (0.0, 200, 120, 0), (0.5, 150, 40, 0), (2.0, 300, 200, 0),
    (8.0, 360, 90, 0), (9.0, 220, 60, 0), (12.0, 512, 300, 0),
    (12.5, 64, 8, 0), (20.0, 500, 150, 0), (21.0, 310, 80, 0),
    (40.0, 900, 400, 0), (41.0, 700, 120, 0),
]


def _run_workload(policy, kv_tokens=6144, chunk_tokens=512, workload=None):
    """Drive one engine through the workload; returns per-request
    observables in submission order."""
    kernel = SimKernel(seed=7)
    engine = _engine(kernel, policy=policy, kv_tokens=kv_tokens,
                     chunk_tokens=chunk_tokens, coalesce=False)
    requests = []

    def feeder(env):
        t = 0.0
        for at, prompt, max_new, priority in (workload or WORKLOAD):
            if at > t:
                yield env.timeout(at - t)
                t = at
            requests.append(engine.submit(RequestSpec(
                prompt, max_new, priority=priority)))

    kernel.spawn(feeder(kernel))
    kernel.run(until=200.0)
    kernel.run(until=kernel.all_of([r.done for r in requests]))
    return [(r.tokens_generated, r.first_token_at, r.finished_at,
             r.preemptions) for r in requests]


def test_make_policy_factory_and_validation():
    assert isinstance(make_policy("fcfs"), FcfsPolicy)
    assert isinstance(make_policy("priority"), PriorityPolicy)
    chunked = make_policy("chunked", chunk_tokens=64)
    assert isinstance(chunked, ChunkedPrefillPolicy)
    assert chunked.chunk_tokens == 64
    with pytest.raises(ConfigurationError, match="unknown scheduler"):
        make_policy("sjf")
    with pytest.raises(ConfigurationError, match="chunk_tokens"):
        ChunkedPrefillPolicy(chunk_tokens=0)


def test_only_fcfs_supports_coalescing():
    assert FcfsPolicy.supports_coalescing
    assert not PriorityPolicy.supports_coalescing
    assert not ChunkedPrefillPolicy.supports_coalescing


def test_engine_queues_are_scheduler_views(kernel):
    engine = _engine(kernel)
    waiting, running = engine.waiting, engine.running
    assert waiting is engine.scheduler.waiting
    assert running is engine.scheduler.running
    assert isinstance(engine.scheduler, Scheduler)
    # Plain aliases, so neither side may ever rebind: still the same
    # objects after requests queued, ran and finished, and after a
    # failure cleared both queues.
    reqs = [engine.submit(RequestSpec(64, 40)) for _ in range(6)]
    kernel.run(until=kernel.all_of([r.done for r in reqs]))
    engine.submit(RequestSpec(64, 40))
    engine._fail_outstanding(RuntimeError("queues cleared"))
    assert not waiting and not running
    for obj in (engine, engine.scheduler):
        assert obj.waiting is waiting and obj.running is running


def test_priority_equal_classes_is_bit_identical_to_fcfs():
    """With every request in priority class 0, the priority policy's
    ordered queue degenerates to arrival order — the whole trajectory
    (tokens, TTFTs, finish times, preemption counts) must match FCFS
    exactly, including under KV pressure."""
    assert _run_workload("fcfs") == _run_workload("priority")


def test_chunked_with_huge_chunk_is_bit_identical_to_fcfs():
    """A chunk wider than any prompt pays every prefill in one slice,
    which is exactly FCFS admission."""
    fcfs = _run_workload("fcfs", kv_tokens=200_000)
    chunked = _run_workload("chunked", kv_tokens=200_000,
                            chunk_tokens=10 ** 6)
    assert fcfs == chunked


def test_priority_admission_jumps_the_queue():
    """With batch size 1, a late high-priority arrival overtakes
    earlier class-0 requests still waiting."""
    kernel = SimKernel(seed=3)
    engine = _engine(kernel, policy="priority", max_num_seqs=1,
                     coalesce=False)
    first = engine.submit(RequestSpec(64, 40))           # admitted alone
    low = [engine.submit(RequestSpec(64, 40)) for _ in range(3)]
    kernel.run(until=0.001)
    high = engine.submit(RequestSpec(64, 40, priority=5))
    kernel.run(until=kernel.all_of(
        [r.done for r in [first, high] + low]))
    assert high.finished_at < min(r.finished_at for r in low)
    # The in-flight request was not preempted: priority reorders the
    # waiting queue; it evicts only when KV pressure demands it.
    assert first.preemptions == 0


def test_priority_preempts_lower_class_under_kv_pressure():
    """When a high-priority arrival cannot fit, the policy evicts
    strictly-lower-priority running work (recompute-style) — the high
    request finishes first and the victims still complete."""
    kernel = SimKernel(seed=3)
    engine = _engine(kernel, policy="priority", kv_tokens=4096,
                     coalesce=False)
    # Class-0 work holding ~1.5k tokens now, growing toward 4.2k; the
    # 3.1k-token high-priority arrival cannot fit without evictions.
    low = [engine.submit(RequestSpec(500, 900)) for _ in range(3)]
    kernel.run(until=0.5)
    high = engine.submit(RequestSpec(3000, 100, priority=10))
    kernel.run(until=kernel.all_of([r.done for r in low + [high]]))
    assert high.preemptions == 0
    assert high.finished_at < min(r.finished_at for r in low)
    assert sum(r.preemptions for r in low) > 0
    assert all(r.tokens_generated == r.max_new_tokens for r in low + [high])
    assert engine.blocks.used_blocks == 0


def _max_token_stall(policy, chunk_tokens=256):
    """Longest interval during which a running decode makes no progress
    while a 32k-token prompt prefills alongside it."""
    kernel = SimKernel(seed=5)
    engine = _engine(kernel, policy=policy, kv_tokens=200_000,
                     chunk_tokens=chunk_tokens, coalesce=False)
    victim = engine.submit(RequestSpec(64, 2000))
    kernel.run(until=victim.first_token)
    engine.submit(RequestSpec(32768, 16))
    stall = {"max": 0.0, "last_t": kernel.now,
             "last_n": victim.tokens_generated}

    def watcher(env):
        while not victim.done.triggered:
            if victim.tokens_generated != stall["last_n"]:
                stall["max"] = max(stall["max"],
                                   env.now - stall["last_t"])
                stall["last_t"] = env.now
                stall["last_n"] = victim.tokens_generated
            yield env.timeout(0.002)

    kernel.spawn(watcher(kernel))
    kernel.run(until=victim.done)
    return stall["max"]


def test_chunked_prefill_bounds_decode_stalls():
    """Under FCFS a 32k-token prefill stalls every in-flight decode for
    the full prefill; chunked prefill amortizes it into per-iteration
    slices, shrinking the worst inter-token gap by an order of
    magnitude (the TTFT-tail win the policy exists for)."""
    fcfs_stall = _max_token_stall("fcfs")
    chunked_stall = _max_token_stall("chunked", chunk_tokens=256)
    assert chunked_stall < fcfs_stall / 5


def test_chunked_prefill_still_completes_everything():
    results = _run_workload("chunked", kv_tokens=6144, chunk_tokens=128)
    expected = [max_new for _, _, max_new, _ in WORKLOAD]
    assert [tokens for tokens, *_ in results] == expected
