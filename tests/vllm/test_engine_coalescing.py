"""Coalesced decode must be observably identical to per-iteration
stepping: same tokens, same completions, same timing (to float-sum
rounding), with the KV counter never drifting from ground truth."""

from __future__ import annotations

import pytest

from repro.hardware import gpu_spec
from repro.models import llama4_scout
from repro.models.weights import validate_fit
from repro.simkernel import SimKernel
from repro.vllm import (EngineArgs, LLMEngine, PerfModel, PerfProfile,
                        RequestSpec)


def _engine(kernel, kv_tokens=None, max_num_seqs=1024, coalesce=True,
            prefix_caching=False):
    card = llama4_scout()
    gpu = gpu_spec("H100-SXM-80G")
    args = EngineArgs(model=card.name, tensor_parallel_size=4,
                      max_model_len=65536, max_num_seqs=max_num_seqs,
                      enable_prefix_caching=prefix_caching)
    kv = kv_tokens if kv_tokens is not None else validate_fit(
        card, gpu, 4, max_model_len=65536)
    perf = PerfModel(card, gpu, 4, profile=PerfProfile())
    engine = LLMEngine(kernel, card, perf, args, kv)
    if not coalesce:
        # An unreachable threshold forces per-iteration stepping.
        engine.MIN_JUMP = 10 ** 9
    engine.start()
    return engine


# Multi-turn session traffic: (submit_at, prompt, max_new, session_key).
# Turn k+1's prompt = turn k's prompt + output + fresh user text, so the
# prefix cache hits mid-run — while unkeyed single-shots interleave.
SESSION_WORKLOAD = [
    (0.0, 200, 120, "a"), (0.5, 150, 40, "b"), (2.0, 300, 200, None),
    (8.0, 360, 90, "a"),        # a#2: 200+120+40
    (9.0, 220, 60, "b"),        # b#2: 150+40+30
    (12.0, 512, 300, None), (12.5, 64, 8, None),
    (20.0, 500, 150, "a"),      # a#3: 360+90+50
    (21.0, 310, 80, "b"),       # b#3: 220+60+30
    (40.0, 900, 400, None), (41.0, 700, 120, "a"),
]


def _run_session_workload(coalesce, kv_tokens=None):
    kernel = SimKernel(seed=9)
    engine = _engine(kernel, kv_tokens=kv_tokens, coalesce=coalesce,
                     prefix_caching=True)
    requests = []

    def feeder(env):
        t = 0.0
        for at, prompt, max_new, key in SESSION_WORKLOAD:
            if at > t:
                yield env.timeout(at - t)
                t = at
            requests.append(engine.submit(
                RequestSpec(prompt, max_new, session_key=key)))

    kernel.spawn(feeder(kernel))
    kernel.run(until=5000.0)
    return engine, requests


@pytest.mark.parametrize("kv_tokens", [None, 4096])
def test_coalesced_equals_stepwise_with_prefix_caching(kv_tokens):
    """The PR-4 equivalence contract must survive prefix caching: jumps
    plan with the same admission predicate and eviction accounting as
    per-iteration stepping, so tokens, TTFTs, finish times, cache hits,
    and the cache's own counters are bit-identical either way."""
    fast_engine, fast = _run_session_workload(True, kv_tokens)
    slow_engine, slow = _run_session_workload(False, kv_tokens)
    assert len(fast) == len(slow) == len(SESSION_WORKLOAD)
    for a, b in zip(fast, slow):
        assert a.tokens_generated == b.tokens_generated
        assert a.preemptions == b.preemptions
        assert a.cached_tokens == b.cached_tokens
        assert a.first_token_at == pytest.approx(b.first_token_at,
                                                 rel=1e-9, abs=1e-6)
        assert a.finished_at == pytest.approx(b.finished_at,
                                              rel=1e-9, abs=1e-6)
    assert fast_engine.total_output_tokens == slow_engine.total_output_tokens
    assert fast_engine.iterations == slow_engine.iterations
    assert fast_engine.blocks.cache_stats() == slow_engine.blocks.cache_stats()
    assert any(r.cached_tokens > 0 for r in fast), \
        "the workload must actually exercise the cache"
    fast_engine.blocks.check_invariants()
    slow_engine.blocks.check_invariants()


WORKLOAD = [
    # (submit_at, prompt_tokens, max_new_tokens)
    (0.0, 200, 120), (0.0, 150, 40), (2.0, 300, 200), (2.5, 64, 8),
    (10.0, 512, 300), (10.0, 100, 90), (30.0, 256, 150), (31.0, 80, 33),
    (60.0, 900, 400), (61.0, 40, 5),
]


def _run_workload(coalesce, kv_tokens=None):
    kernel = SimKernel(seed=1)
    engine = _engine(kernel, kv_tokens=kv_tokens, coalesce=coalesce)
    requests = []

    def feeder(env):
        t = 0.0
        for at, prompt, max_new in WORKLOAD:
            if at > t:
                yield env.timeout(at - t)
                t = at
            requests.append(engine.submit(RequestSpec(prompt, max_new)))

    kernel.spawn(feeder(kernel))
    kernel.run(until=5000.0)
    return engine, requests


@pytest.mark.parametrize("kv_tokens", [None, 4096])
def test_coalesced_equals_stepwise(kv_tokens):
    """Full-fidelity check across admissions mid-decode, staggered
    finishes, and (for the small KV budget) preemption pressure."""
    fast_engine, fast = _run_workload(True, kv_tokens)
    slow_engine, slow = _run_workload(False, kv_tokens)
    assert len(fast) == len(slow) == len(WORKLOAD)
    for a, b in zip(fast, slow):
        assert a.tokens_generated == b.tokens_generated
        assert a.preemptions == b.preemptions
        assert a.first_token_at == pytest.approx(b.first_token_at,
                                                 rel=1e-9, abs=1e-6)
        assert a.finished_at == pytest.approx(b.finished_at,
                                              rel=1e-9, abs=1e-6)
    assert fast_engine.total_output_tokens == slow_engine.total_output_tokens
    assert fast_engine.iterations == slow_engine.iterations
    assert fast_engine.completed_count == slow_engine.completed_count
    # But the coalesced engine got there in far fewer kernel events --
    # that is the point.  (Not asserted: event counts are an internal.)


def test_kv_counter_matches_ground_truth_throughout():
    kernel = SimKernel(seed=2)
    engine = _engine(kernel, kv_tokens=8192)
    reqs = [engine.submit(RequestSpec(400, 300)) for _ in range(5)]

    def auditor(env):
        while not all(r.done.triggered for r in reqs):
            assert engine.kv_tokens_in_use == sum(
                r.total_tokens for r in engine.running)
            yield env.timeout(0.5)

    kernel.spawn(auditor(kernel))
    kernel.run(until=kernel.all_of([r.done for r in reqs]))
    assert engine.kv_tokens_in_use == 0
    assert engine.blocks.used_blocks == 0


def test_arrival_during_per_iteration_sleep_is_not_jumped_over():
    """Regression: a request landing during a *per-iteration* sleep (no
    jump wake exists, so nudge() is a no-op) must be admitted at the
    next boundary — the following fast-forward may not sleep past an
    admissible waiting head.  Verified by exact first-token equivalence
    with per-iteration stepping for an arrival timed into the prefill
    step right before a jump would start."""
    results = []
    for coalesce in (True, False):
        kernel = SimKernel(seed=5)
        engine = _engine(kernel, coalesce=coalesce)
        engine.submit(RequestSpec(100, 2000))
        late = []

        def feeder(env):
            yield env.timeout(0.51)
            late.append(engine.submit(RequestSpec(64, 16)))

        kernel.spawn(feeder(kernel))
        kernel.run(until=200.0)
        assert late[0].done.triggered
        results.append((late[0].first_token_at, late[0].finished_at,
                        late[0].tokens_generated))
    fast, slow = results
    assert fast[2] == slow[2]
    assert fast[0] == pytest.approx(slow[0], rel=1e-9, abs=1e-6)
    assert fast[1] == pytest.approx(slow[1], rel=1e-9, abs=1e-6)


def test_submission_mid_jump_is_admitted_at_next_boundary():
    """A request arriving while a long coalesced sleep is in flight must
    wait at most one iteration before admission — not the whole jump."""
    kernel = SimKernel(seed=3)
    engine = _engine(kernel)
    first = engine.submit(RequestSpec(100, 5000))       # one long request -> long jumps
    kernel.run(until=first.first_token)
    const, kv_coeff = engine.perf.decode_coeffs(1)
    step_now = const + kv_coeff * engine.kv_tokens_in_use
    t_submit = kernel.now + 10.0
    late = []

    def feeder(env):
        yield env.timeout(10.0)
        late.append(engine.submit(RequestSpec(64, 4)))

    kernel.spawn(feeder(kernel))
    kernel.run(until=kernel.now + 12.0)
    assert late and late[0].first_token_at is not None
    # Admission boundary + prefill + first decode step all land within
    # a few iteration times of the arrival, not at the end of the jump.
    assert late[0].first_token_at - t_submit < 10 * step_now + 1.0
    kernel.run(until=late[0].done)
    assert late[0].tokens_generated == 4
    assert not first.done.triggered        # the long request is still going


def test_live_fault_attach_interrupts_a_jump():
    """faults.attach on a busy engine must fire at the next iteration
    boundary even if the engine was mid-way through a coalesced sleep."""
    from repro.vllm import faults
    kernel = SimKernel(seed=4)
    engine = _engine(kernel)
    request = engine.submit(RequestSpec(100, 50000))
    kernel.run(until=request.first_token)
    t_attach = kernel.now + 5.0

    def attacker(env):
        yield env.timeout(5.0)
        faults.attach(engine, faults.CrashAtTime(0.0, reason="live"))

    kernel.spawn(attacker(kernel))

    def waiter(env):
        try:
            yield request.done
            return "ok"
        except Exception:
            return "crashed"

    proc = kernel.spawn(waiter(kernel))
    assert kernel.run(until=proc) == "crashed"
    # The crash lands within one iteration of the attach, not at the
    # end of the (hours-long) coalesced stretch.
    assert engine.crashed is not None
    assert kernel.now - t_attach < 1.0
