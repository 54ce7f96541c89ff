"""RequestSpec validation, and ``LLMEngine.submit`` taking only a spec."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hardware import gpu_spec
from repro.models import llama4_scout
from repro.vllm import (EngineArgs, LLMEngine, PerfModel, PerfProfile,
                        RequestSpec)


def _engine(kernel):
    card = llama4_scout()
    gpu = gpu_spec("H100-SXM-80G")
    args = EngineArgs(model=card.name, tensor_parallel_size=4,
                      max_model_len=65536)
    perf = PerfModel(card, gpu, 4, profile=PerfProfile())
    engine = LLMEngine(kernel, card, perf, args, 200_000)
    engine.start()
    return engine


def test_spec_validates_at_construction():
    with pytest.raises(ConfigurationError, match="positive"):
        RequestSpec(prompt_tokens=0, max_new_tokens=5)
    with pytest.raises(ConfigurationError, match="positive"):
        RequestSpec(prompt_tokens=10, max_new_tokens=0)
    with pytest.raises(ConfigurationError, match="prefill_done"):
        RequestSpec(100, 10, tokens_generated=1)
    with pytest.raises(ConfigurationError, match="first token"):
        RequestSpec(100, 10, prefill_done=True)
    with pytest.raises(ConfigurationError, match="exceeds"):
        RequestSpec(100, 10, prefill_done=True, tokens_generated=11)


def test_spec_is_frozen_and_hashable():
    spec = RequestSpec(100, 10, session_key="s", priority=2)
    with pytest.raises(Exception):
        spec.prompt_tokens = 5
    assert spec == RequestSpec(100, 10, session_key="s", priority=2)
    assert len({spec, RequestSpec(100, 10, session_key="s", priority=2)}) == 1


def test_submit_takes_only_a_request_spec(kernel):
    engine = _engine(kernel)
    request = engine.submit(RequestSpec(300, 40))
    kernel.run(until=request.done)
    stats = request.stats()
    assert stats.prompt_tokens == 300 and stats.output_tokens == 40
    with pytest.raises(TypeError):
        engine.submit(200, 50)
