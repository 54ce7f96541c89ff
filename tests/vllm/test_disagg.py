"""Engine-level disaggregation semantics: prefill legs, decode legs
(``prefill_done`` specs), and the conservation property that splitting
a request across two engines changes *where* tokens are computed but
never *how many*."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware import gpu_spec
from repro.models import llama4_scout
from repro.simkernel import SimKernel
from repro.vllm import (EngineArgs, LLMEngine, PerfModel, PerfProfile,
                        RequestSpec)


def _mk_engine(kernel, kv_tokens=200_000, role="unified"):
    card = llama4_scout()
    gpu = gpu_spec("H100-SXM-80G")
    args = EngineArgs(model=card.name, tensor_parallel_size=4,
                      max_model_len=65536, disagg_role=role)
    engine = LLMEngine(kernel, card,
                       PerfModel(card, gpu, 4, profile=PerfProfile()),
                       args, kv_tokens)
    engine.start()
    return engine


def test_decode_leg_first_token_resolves_immediately(kernel):
    """A handoff spec's first token was produced on the prefill engine,
    so TTFT on the decode engine is zero by construction."""
    engine = _mk_engine(kernel)
    request = engine.submit(RequestSpec(500, 20, prefill_done=True,
                                        tokens_generated=1))
    assert request.first_token.triggered
    assert request.first_token_at == kernel.now
    kernel.run(until=request.done)
    assert request.tokens_generated == 20  # 19 decoded here + 1 handed off


def test_decode_leg_charges_no_prefill(kernel):
    """Admission of a handoff pays no prefill compute: the decode leg
    of a huge prompt finishes well before a cold request of the same
    shape (which must prefill those tokens locally)."""
    k1, k2 = SimKernel(seed=1), SimKernel(seed=1)
    cold = _mk_engine(k1).submit(RequestSpec(30000, 10))
    warm = _mk_engine(k2).submit(RequestSpec(30000, 10, prefill_done=True,
                                             tokens_generated=1))
    k1.run(until=cold.done)
    k2.run(until=warm.done)
    assert warm.finished_at < cold.finished_at
    assert cold.tokens_generated == warm.tokens_generated == 10


def test_preemption_revokes_the_handoff(kernel):
    """A preempted decode leg loses its transferred KV blocks, so it
    recomputes the prefill locally like any other request — and still
    delivers exactly its token budget."""
    engine = _mk_engine(kernel, kv_tokens=4096)
    others = [engine.submit(RequestSpec(500, 700)) for _ in range(4)]
    kernel.run(until=0.2)
    # Submitted last: recompute-preemption is LIFO, so when the cache
    # fills this youngest request is the first victim.
    decode = engine.submit(RequestSpec(1500, 600, prefill_done=True,
                                       tokens_generated=1))
    kernel.run(until=kernel.all_of([r.done for r in [decode] + others]))
    assert decode.tokens_generated == 600
    assert decode.preemptions > 0
    assert not decode.prefill_done    # revoked on first preemption
    assert engine.blocks.used_blocks == 0


request_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=600),   # prompt
              st.integers(min_value=1, max_value=200)),  # max_new
    min_size=1, max_size=25)


@given(reqs=request_lists,
       kv_tokens=st.integers(min_value=2048, max_value=60_000))
# A full cache once made a sequence preempt a peer that had just
# produced its last token; the engine loop died with requests queued.
@example(reqs=[(144, 1), (176, 1), (192, 1), (400, 1), (496, 1), (560, 1)],
         kv_tokens=2048)
@settings(max_examples=40, deadline=None)
def test_disagg_split_conserves_token_counts(reqs, kv_tokens):
    """Serving a workload as prefill+decode legs yields the same
    per-request and total token counts as unified serving: the prefill
    engine emits exactly the first token, the decode engine the rest.
    (This is the engine-level half of the router's merge contract.)"""
    reqs = [(p, o) for p, o in reqs if p + o <= kv_tokens]
    if not reqs:
        return
    uk = SimKernel(seed=2)
    unified = _mk_engine(uk, kv_tokens)
    uh = [unified.submit(RequestSpec(p, o)) for p, o in reqs]
    uk.run(until=uk.all_of([h.done for h in uh]))

    dk = SimKernel(seed=2)
    pre, dec = _mk_engine(dk, kv_tokens, role="prefill"), \
        _mk_engine(dk, kv_tokens, role="decode")
    ph = [pre.submit(RequestSpec(p, 1)) for p, o in reqs]
    dk.run(until=dk.all_of([h.done for h in ph]))
    # Single-token requests finish at the prefill leg (router contract).
    dh = [dec.submit(RequestSpec(p, o, prefill_done=True,
                                 tokens_generated=1))
          for p, o in reqs if o > 1]
    if dh:
        dk.run(until=dk.all_of([h.done for h in dh]))

    for handle, (_, o) in zip(uh, reqs):
        assert handle.tokens_generated == o
    assert all(h.tokens_generated == 1 for h in ph)
    decoded = sum(h.tokens_generated - 1 for h in dh)
    assert sum(h.tokens_generated for h in ph) + decoded \
        == sum(h.tokens_generated for h in uh)
    assert unified.blocks.used_blocks == 0
    assert pre.blocks.used_blocks == dec.blocks.used_blocks == 0
