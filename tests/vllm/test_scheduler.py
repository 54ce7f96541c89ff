"""Tests for the engine's scheduler and its policy subclasses.

``Scheduler`` is the FCFS scheduler; ``PriorityScheduler`` and
``ChunkedScheduler`` override only the decisions they change.  The
policy-swap equivalence tests hold them to FCFS where their rules
degenerate to it: with every request in one priority class (or one
prefill chunk), the trajectory — tokens, TTFTs, finish times — must be
bit-identical.  The pressure pins fix each policy's own trajectory
under KV and batch-size pressure, with preemptions, prefix hits and
disaggregated handoffs in the mix, so a refactor of the scheduler can
move none of them.  Every policy runs the one coalesced engine loop,
and a drawn-workload property holds each to per-iteration stepping.
The remaining tests pin the behaviors that are supposed to differ, and
check that bad policy settings are refused where they enter the
program.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.hardware import gpu_spec
from repro.models import llama4_scout
from repro.simkernel import SimKernel
from repro.vllm import (SCHEDULER_POLICIES, SCHEDULERS, ChunkedScheduler,
                        EngineArgs, LLMEngine, PerfModel, PerfProfile,
                        PriorityScheduler, RequestSpec, Scheduler,
                        parse_serve_command)


def _engine(kernel, policy="fcfs", kv_tokens=200_000, max_num_seqs=1024,
            chunk_tokens=512, coalesce=True, prefix_caching=False):
    card = llama4_scout()
    gpu = gpu_spec("H100-SXM-80G")
    args = EngineArgs(model=card.name, tensor_parallel_size=4,
                      max_model_len=65536, max_num_seqs=max_num_seqs,
                      scheduler_policy=policy, chunk_tokens=chunk_tokens,
                      enable_prefix_caching=prefix_caching)
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


@pytest.mark.parametrize("kwargs,match", [
    ({"scheduler_policy": "sjf"}, "unknown scheduler_policy"),
    ({"chunk_tokens": 0}, "chunk_tokens"),
    ({"max_num_seqs": 0}, "max_num_seqs"),
], ids=["policy", "chunk_tokens", "max_num_seqs"])
def test_bad_scheduler_settings_fail_at_the_input_boundary(kwargs, match):
    """A bad policy name or chunk budget is refused where it enters the
    program: ``EngineArgs`` and the ``vllm serve`` parser."""
    with pytest.raises(ConfigurationError, match=match):
        EngineArgs(model="m", **kwargs)
    (flag, value), = kwargs.items()
    argv = ("vllm", "serve", "/data/", f"--{flag.replace('_', '-')}",
            str(value))
    with pytest.raises(ConfigurationError, match=match):
        parse_serve_command(argv)


@pytest.mark.parametrize("policy,cls", [
    ("fcfs", Scheduler), ("priority", PriorityScheduler),
    ("chunked", ChunkedScheduler)])
def test_each_policy_builds_its_scheduler(kernel, policy, cls):
    engine = _engine(kernel, policy=policy, chunk_tokens=64)
    assert type(engine.scheduler) is cls
    assert SCHEDULERS[policy] is cls
    assert engine.scheduler.name == policy
    assert SCHEDULER_POLICIES == tuple(SCHEDULERS)
    if policy == "chunked":
        assert engine.scheduler.chunk_tokens == 64


#: One drawn arrival: the gap since the previous one (0 is a tie),
#: prompt, output budget, priority class, session key, and whether it
#: is a disaggregated handoff (``prefill_done``, first token already
#: generated elsewhere).
ARRIVAL = st.tuples(
    st.sampled_from((0.0, 0.0, 0.01, 0.05, 0.2, 1.0, 5.0)),
    st.integers(16, 480), st.integers(2, 400), st.sampled_from((0, 1, 5)),
    st.sampled_from((None, "a", "b")), st.booleans())


def _drawn_trajectory(policy, arrivals, kv_tokens, max_num_seqs,
                      chunk_tokens, coalesce):
    kernel = SimKernel(seed=13)
    engine = _engine(kernel, policy=policy, kv_tokens=kv_tokens,
                     max_num_seqs=max_num_seqs, chunk_tokens=chunk_tokens,
                     coalesce=coalesce, prefix_caching=True)
    requests = []

    def feeder(env):
        for gap, prompt, max_new, priority, session, handoff in arrivals:
            if gap:
                yield env.timeout(gap)
            requests.append(engine.submit(RequestSpec(
                prompt, max_new, session_key=session, priority=priority,
                prefill_done=handoff, tokens_generated=int(handoff))))

    kernel.run(until=kernel.spawn(feeder(kernel)))
    kernel.run(until=kernel.all_of([r.done for r in requests]))
    return engine, requests


@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
@settings(max_examples=40, deadline=None)
# A class-0 handoff preempts the class-1 request it shares a 1,024-token
# cache with; at the next boundary the class-1 head may evict it back.
# Coalescing past that boundary under priority diverges from stepping.
@example(arrivals=[(1.0, 156, 372, 0, "b", True),
                   (0.05, 278, 303, 1, None, False)],
         kv_tokens=1024, max_num_seqs=3, chunk_tokens=512)
@given(arrivals=st.lists(ARRIVAL, min_size=1, max_size=14),
       kv_tokens=st.sampled_from((1024, 2048, 4096, 200_000)),
       max_num_seqs=st.integers(1, 4),
       chunk_tokens=st.sampled_from((16, 64, 512)))
def test_coalesced_equals_stepped(policy, arrivals, kv_tokens, max_num_seqs,
                                  chunk_tokens):
    """Every policy runs the one coalesced loop, and over drawn
    workloads (ties, priority classes, prefix-cached sessions,
    handoffs, KV and batch-size pressure, chunk budgets) it matches
    per-iteration stepping: tokens, preemptions and cache hits exactly,
    times to float-sum rounding."""
    runs = [_drawn_trajectory(policy, arrivals, kv_tokens, max_num_seqs,
                              chunk_tokens, coalesce)
            for coalesce in (True, False)]
    (fast_engine, fast), (slow_engine, slow) = runs
    for a, b in zip(fast, slow):
        assert (a.tokens_generated, a.preemptions, a.cached_tokens) \
            == (b.tokens_generated, b.preemptions, b.cached_tokens)
        assert a.first_token_at == pytest.approx(b.first_token_at,
                                                 rel=1e-9, abs=1e-6)
        assert a.finished_at == pytest.approx(b.finished_at,
                                              rel=1e-9, abs=1e-6)
    assert fast_engine.iterations == slow_engine.iterations
    assert fast_engine.blocks.cache_stats() == slow_engine.blocks.cache_stats()


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


def _pressure_specs():
    """Compressed arrivals (every 0.05-0.2 s) in priority classes 0, 1
    and 5, with a disaggregated handoff after every fourth request and
    two conversations whose turns share a prefix.  Yields
    ``(submit_at, RequestSpec)``."""
    t = 0.0
    turns = {"a": 0, "b": 0}
    for i in range(32):
        t += (0.05, 0.2, 0.1, 0.05)[i % 4]
        session = ("a", "b", None)[i % 3]
        if session is None:
            prompt = 96 + (i * 53) % 400
        else:
            turns[session] += 1
            prompt = 128 * turns[session]
        yield t, RequestSpec(prompt, 24 + (i * 37) % 150,
                             session_key=session,
                             priority=(0, 1, 0, 5, 1)[i % 5])
        if i % 4 == 3:
            yield t, RequestSpec(160 + (i * 29) % 300, 40 + i,
                                 priority=(1, 5)[i % 8 // 4],
                                 prefill_done=True, tokens_generated=1)


def _pressure_trajectory(policy, coalesce=True, chunk_tokens=512):
    """Per-request observables of the pressure workload on a 2,048-token
    KV budget with at most three running sequences."""
    kernel = SimKernel(seed=11)
    engine = _engine(kernel, policy=policy, kv_tokens=2048, max_num_seqs=3,
                     chunk_tokens=chunk_tokens, coalesce=coalesce,
                     prefix_caching=True)
    requests = []

    def feeder(env):
        now = 0.0
        for at, spec in _pressure_specs():
            if at > now:
                yield env.timeout(at - now)
                now = at
            requests.append(engine.submit(spec))

    kernel.run(until=kernel.spawn(feeder(kernel)))
    kernel.run(until=kernel.all_of([r.done for r in requests]))
    return [(r.tokens_generated, r.first_token_at, r.finished_at,
             r.preemptions, r.cached_tokens) for r in requests]


def _digest(trajectory) -> str:
    return hashlib.sha256(repr(trajectory).encode()).hexdigest()


#: SHA-256 of each policy's trajectory under the pressure workload,
#: coalesced and stepped.  A coalesced run equals the stepped one only
#: to float-sum rounding, so each side has its own pin.  A refactor of
#: the scheduler must leave every one unchanged.
PRESSURE_DIGESTS = {
    ("fcfs", True):
        "e01ca4ea27ea74fafbbb175c6394ea29dc68b73f64fa637ad1b8ef7dc475b89c",
    ("fcfs", False):
        "2e1df03250808cc6a03ccd5f0c21801aa47d6ef2b08b9423ee1e6213d5d5ea49",
    ("priority", True):
        "fb498f85e56ceb07513fc7eb6b5851f8c7c7226a9ec3ff10e4869a867937412a",
    ("priority", False):
        "8b25d6fa7e150ea0e2e1e27ddc379e0f19ff0826efd423c007944099d7faf11d",
    ("chunked", True):
        "4db1a82d2a02dd7086e951eff1daa817af65f26c3c8a6a49b68303dacd649701",
    ("chunked", False):
        "548915442f75e7b2e0ebfac32f9e89265272b8a84f762bc03d3a56a0bca3e279",
}


@pytest.mark.parametrize("policy,coalesce", list(PRESSURE_DIGESTS))
def test_policy_trajectory_under_pressure_is_pinned(policy, coalesce):
    """Every policy's per-request trajectory (tokens, first-token and
    finish times, preemptions, cached tokens) under KV and batch-size
    pressure, with handoffs and prefix hits in the mix, is pinned."""
    trajectory = _pressure_trajectory(policy, coalesce=coalesce,
                                      chunk_tokens=64)
    assert all(tokens == spec.max_new_tokens for (tokens, *_), (_, spec)
               in zip(trajectory, _pressure_specs()))
    assert _digest(trajectory) == PRESSURE_DIGESTS[policy, coalesce]


def test_pressure_pins_are_not_degenerate():
    """The pinned workload preempts, hits the prefix cache, and the
    priority policy's trajectory differs from FCFS's."""
    fcfs = _pressure_trajectory("fcfs", coalesce=False)
    priority = _pressure_trajectory("priority", coalesce=False)
    for trajectory in (fcfs, priority):
        assert sum(row[3] for row in trajectory) > 0
        assert sum(row[4] for row in trajectory) > 0
    assert _digest(priority) != _digest(fcfs)
