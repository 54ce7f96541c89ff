"""Prefix-cache correctness: block sharing, LRU eviction, engine reuse.

The hypothesis suite drives random admit / append / finish-with-register
/ evict interleavings through the BlockManager and audits the full
accounting invariant after every operation — a leak or double free under
shared (ref-counted) blocks is impossible by construction, not by luck.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, StateError
from repro.simkernel import SimKernel
from repro.vllm import RequestSpec, kvcache
from repro.vllm.kvcache import BLOCK_SIZE, BlockManager, block_hash
from tests.vllm.test_prefix_cache_oracle import expand


def make(blocks: int = 10, caching: bool = True) -> BlockManager:
    return BlockManager(capacity_tokens=blocks * BLOCK_SIZE,
                        prefix_caching=caching)


# -- unit behavior ---------------------------------------------------------------


def test_register_then_reuse_shares_blocks():
    bm = make(10)
    assert bm.allocate(1, 40, prefix_key="conv") == 0   # cold: no hits
    bm.free(1, register_key="conv")                     # 2 full blocks cached
    assert bm.resident_cached_blocks == 2
    assert bm.free_blocks == 8                          # residents not free
    cached = bm.allocate(2, 40, prefix_key="conv")
    assert cached == 2 * BLOCK_SIZE
    # 3 blocks needed, 2 shared: only 1 private block consumed.
    assert bm.free_blocks == 7
    bm.free(2, register_key="conv")
    assert bm.resident_cached_blocks == 2
    bm.check_invariants()


def test_growing_context_registers_more_blocks():
    bm = make(20)
    bm.allocate(1, 40, prefix_key="s")
    for _ in range(24):                                 # context -> 64 tokens
        bm.append_token(1)
    bm.free(1, register_key="s")
    assert bm.resident_cached_blocks == 4               # 64 // 16
    cached = bm.allocate(2, 70, prefix_key="s")
    assert cached == 64
    bm.check_invariants()


def test_full_hit_still_computes_one_token():
    """A prompt fully covered by cached blocks must leave >= 1 token to
    prefill (vLLM's rule: the last token's logits need a forward pass)."""
    bm = make(10)
    bm.allocate(1, 32, prefix_key="c")
    bm.free(1, register_key="c")
    cached = bm.allocate(2, 32, prefix_key="c")
    assert cached == 16                                 # not 32
    bm.check_invariants()


def test_lru_eviction_under_pressure():
    bm = make(4)
    bm.allocate(1, 32, prefix_key="a")
    bm.free(1, register_key="a")                        # 2 resident
    bm.allocate(2, 32, prefix_key="b")
    bm.free(2, register_key="b")                        # 4 resident, 0 free
    assert bm.free_blocks == 0 and bm.evictable_blocks == 4
    # A 3-block allocation evicts 3 LRU blocks: session "a" goes first
    # (older), and within a chain the tail precedes the head.
    bm.allocate(3, 48)
    assert bm.cache_evictions == 3
    resident, _ = expand(bm)
    assert block_hash("a", 0) not in resident
    assert block_hash("a", 1) not in resident
    assert block_hash("b", 1) not in resident           # b's tail gone...
    assert block_hash("b", 0) in resident               # ...head survives
    bm.check_invariants()


def test_eviction_trims_chains_tail_first():
    """Partial eviction must leave a *usable* prefix: evicting from the
    head would orphan every remaining block of the chain (hits are
    contiguous from index 0), so chains trim from the tail."""
    bm = make(6)
    bm.allocate(1, 64, prefix_key="a")
    bm.free(1, register_key="a")                        # a/0..a/3 resident
    bm.allocate(2, 3 * BLOCK_SIZE)                      # evicts 1 block
    assert bm.cache_evictions == 1
    resident, _ = expand(bm)
    assert block_hash("a", 3) not in resident           # the tail
    assert block_hash("a", 2) in resident
    # The surviving head still hits for the session's next turn.
    bm.free(2)
    assert bm.allocate(3, 64, prefix_key="a") == 3 * BLOCK_SIZE
    bm.check_invariants()


def test_referenced_blocks_are_never_evicted():
    bm = make(4)
    bm.allocate(1, 32, prefix_key="a")
    bm.free(1, register_key="a")
    cached = bm.allocate(2, 40, prefix_key="a")         # refs both residents
    assert cached == 32
    # 1 free block left; asking for more than free + evictable raises,
    # because the referenced blocks cannot be reclaimed.
    assert not bm.can_allocate(3 * BLOCK_SIZE)
    with pytest.raises(CapacityError):
        bm.allocate(3, 3 * BLOCK_SIZE)
    bm.check_invariants()
    bm.free(2)                                          # refs released
    assert bm.evictable_blocks == 2


def test_append_evicts_on_pressure():
    bm = make(3)
    bm.allocate(1, 32, prefix_key="a")
    bm.free(1, register_key="a")
    bm.allocate(2, 16)                                  # 1 private block
    assert bm.free_blocks == 0
    assert bm.can_append(2)                             # via eviction
    bm.append_token(2)                                  # crossing: evicts
    assert bm.cache_evictions == 1
    bm.check_invariants()


def test_double_free_and_unknown_free_still_raise():
    bm = make(4)
    bm.allocate(1, 16, prefix_key="x")
    bm.free(1, register_key="x")
    with pytest.raises(StateError):
        bm.free(1)
    with pytest.raises(StateError):
        bm.free(99)


def test_drop_cache_reclaims_only_unreferenced():
    bm = make(8)
    bm.allocate(1, 32, prefix_key="a")
    bm.free(1, register_key="a")
    bm.allocate(2, 40, prefix_key="a")
    dropped = bm.drop_cache()
    assert dropped == 0                                 # both blocks ref'd
    bm.free(2, register_key="a")
    assert bm.drop_cache() == 2
    assert bm.free_blocks == 8
    bm.check_invariants()


def test_caching_off_is_bitwise_legacy():
    """With prefix_caching off, keys are ignored entirely."""
    bm = make(4, caching=False)
    assert bm.allocate(1, 32, prefix_key="a") == 0
    bm.free(1, register_key="a")
    assert bm.resident_cached_blocks == 0
    assert bm.free_blocks == 4
    assert bm.allocate(2, 32, prefix_key="a") == 0
    bm.check_invariants()


def test_zero_token_allocation_counts_no_miss():
    """A zero-token prompt has no full blocks: it must not count a
    negative miss (which turned the hit rate into ``-0.0``)."""
    bm = make(4)
    assert bm.allocate(1, 0, prefix_key="k") == 0
    stats = bm.cache_stats()
    assert stats["hit_blocks"] == 0 and stats["miss_blocks"] == 0
    assert str(stats["hit_rate"]) == "0.0"
    bm.free(1, register_key="k")
    bm.allocate(2, 32, prefix_key="k")
    bm.free(2, register_key="k")                        # k/0..1 resident
    assert bm.allocate(3, 0, prefix_key="k") == 0       # nothing to hit
    assert bm.cache_stats()["miss_blocks"] == 1
    bm.check_invariants()


def test_a_long_conversation_costs_o_turn(monkeypatch):
    """200 turns growing past 2,000 blocks of context: after every
    finish the chain is one resident run in at most two LRU segments,
    and no lookup, allocate or free walks the chain block by block."""
    def walk(*_args):
        raise AssertionError("per-block walk")

    bm = make(4096)
    context = 0
    for turn in range(200):
        prompt = context + 100
        with monkeypatch.context() as patch:
            patch.setattr(kvcache, "block_hash", walk)
            assert bm.can_allocate(prompt, prefix_key="conv")
            cached = bm.allocate(turn, prompt, prefix_key="conv")
            bm.append_tokens(turn, 70)
            bm.free(turn, register_key="conv")
        assert cached == context // BLOCK_SIZE * BLOCK_SIZE
        context = prompt + 70
        assert bm._runs["conv"] == [[0, context // BLOCK_SIZE]]
        assert len(bm._segments["conv"]) <= 2
    assert context // BLOCK_SIZE > 2000
    bm.check_invariants()


# -- property test: random interleavings -----------------------------------------


@given(ops=st.lists(
    st.tuples(
        st.sampled_from(["alloc", "alloc_keyed", "append", "bulk",
                         "finish", "abort", "drop"]),
        st.integers(min_value=1, max_value=6),     # seq id
        st.integers(min_value=1, max_value=120),   # tokens / bulk n
        st.integers(min_value=0, max_value=3)),    # prefix-key choice
    min_size=1, max_size=300))
@settings(max_examples=200, deadline=None)
def test_shared_block_accounting_never_leaks(ops):
    """No leak, no double free, no refcount drift across random
    admit / grow / finish-with-register / evict interleavings."""
    bm = BlockManager(capacity_tokens=40 * BLOCK_SIZE, prefix_caching=True)
    keys = [None, "conv-a", "conv-b", "conv-c"]
    for op, seq, tokens, key_idx in ops:
        key = keys[key_idx]
        try:
            if op == "alloc":
                bm.allocate(seq, tokens)
            elif op == "alloc_keyed":
                bm.allocate(seq, tokens, prefix_key=key)
            elif op == "append":
                bm.append_token(seq)
            elif op == "bulk":
                bm.append_tokens(seq, tokens)
            elif op == "finish":
                bm.free(seq, register_key=key)
            elif op == "abort":
                bm.free(seq)
            else:
                bm.drop_cache()
        except (CapacityError, StateError):
            pass
        bm.check_invariants()
    # Tear down every live sequence; nothing may leak.
    for seq in list(bm._held):
        bm.free(seq)
        bm.check_invariants()
    bm.drop_cache()
    assert bm.free_blocks == bm.total_blocks


# -- engine-level reuse ----------------------------------------------------------


def _engine(kernel, caching=True, kv_tokens=8192):
    from repro.hardware import gpu_spec
    from repro.models import llama4_scout
    from repro.vllm import EngineArgs, LLMEngine, PerfModel, PerfProfile
    card = llama4_scout()
    gpu = gpu_spec("H100-SXM-80G")
    args = EngineArgs(model=card.name, tensor_parallel_size=4,
                      max_model_len=65536, enable_prefix_caching=caching)
    perf = PerfModel(card, gpu, 4, profile=PerfProfile())
    engine = LLMEngine(kernel, card, perf, args, kv_tokens)
    engine.start()
    return engine


def test_second_turn_ttft_beats_cold():
    kernel = SimKernel(seed=3)
    engine = _engine(kernel, kv_tokens=65536 * 4)
    r1 = engine.submit(RequestSpec(1000, 200, session_key="s1"))
    kernel.run(until=r1.done)
    assert r1.cached_tokens == 0
    r2 = engine.submit(RequestSpec(1280, 200, session_key="s1"))     # prior context + 80
    kernel.run(until=r2.done)
    cold = engine.submit(RequestSpec(1280, 200))                     # same shape, no key
    kernel.run(until=cold.done)
    assert r2.cached_tokens == 1200             # 75 blocks
    assert cold.cached_tokens == 0
    ttft = {r: r.first_token_at - r.submitted_at for r in (r2, cold)}
    assert ttft[r2] < ttft[cold] / 2
    engine.blocks.check_invariants()


def test_preempted_session_request_rehits_cache_on_readmission():
    """A recompute-preempted session turn releases its shared refs and
    re-looks-up the prefix cache on readmission — hitting again when the
    blocks survived (no pressure in between)."""
    kernel = SimKernel(seed=4)
    engine = _engine(kernel, kv_tokens=65536)
    warm = engine.submit(RequestSpec(1000, 40, session_key="w"))
    kernel.run(until=warm.done)                    # registers 65 blocks
    follow = engine.submit(RequestSpec(1100, 100, session_key="w"))
    kernel.run(until=follow.first_token)
    assert follow.cached_tokens == 1040
    engine._preempt(follow)                        # forced recompute
    engine.blocks.check_invariants()
    kernel.run(until=follow.done)
    assert follow.preemptions == 1
    assert follow.cached_tokens == 1040    # re-hit after recompute
    engine.blocks.check_invariants()


def test_kv_audit_stays_clean_under_session_preemption_pressure():
    """Keyed requests churning through eviction + preemption pressure:
    the shared-block audit and the engine kv counter never drift."""
    kernel = SimKernel(seed=44)
    engine = _engine(kernel, kv_tokens=4096)
    warm = engine.submit(RequestSpec(1000, 40, session_key="w"))
    kernel.run(until=warm.done)
    reqs = [engine.submit(RequestSpec(900, 400, session_key=f"p{i}")) for i in range(4)]
    follow = engine.submit(RequestSpec(1100, 100, session_key="w"))
    done = kernel.all_of([r.done for r in reqs] + [follow.done])

    def auditor(env):
        while not done.triggered:
            engine.blocks.check_invariants()
            assert engine.kv_tokens_in_use == sum(
                r.total_tokens for r in engine.running)
            yield env.timeout(0.5)

    kernel.spawn(auditor(kernel))
    kernel.run(until=done)
    engine.blocks.check_invariants()
    assert engine.kv_tokens_in_use == 0
    assert sum(r.preemptions for r in reqs + [follow]) > 0


def test_engine_metrics_exposes_cache_gauges():
    kernel = SimKernel(seed=5)
    engine = _engine(kernel)
    r1 = engine.submit(RequestSpec(600, 50, session_key="m"))
    kernel.run(until=r1.done)
    r2 = engine.submit(RequestSpec(700, 50, session_key="m"))
    kernel.run(until=r2.done)
    cache = engine.blocks.cache_stats()
    assert cache["enabled"] is True
    assert cache["hit_blocks"] > 0
    assert cache["resident_blocks"] > 0
    assert cache["cached_tokens_total"] == r2.cached_tokens
