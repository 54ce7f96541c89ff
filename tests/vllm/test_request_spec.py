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


#: RequestSpec's fields in constructor order; positional callers rely on it.
SPEC_FIELDS = ("prompt_tokens", "max_new_tokens", "session_key", "priority",
               "trace_id", "trace_parent", "prefill_done", "tokens_generated")


def test_spec_field_order_and_positional_construction():
    assert RequestSpec._fields == SPEC_FIELDS
    values = (300, 40, "s", 2, 7, 9, True, 3)
    by_keyword = RequestSpec(**dict(zip(SPEC_FIELDS, values)))
    by_position = RequestSpec(*values)
    assert by_keyword == by_position
    assert [getattr(by_position, name) for name in SPEC_FIELDS] == \
        list(values)
    assert RequestSpec(5, 6) == RequestSpec(prompt_tokens=5, max_new_tokens=6)


def test_spec_rejects_every_attribute_assignment_and_has_no_dict():
    spec = RequestSpec(100, 10)
    for name in SPEC_FIELDS:
        with pytest.raises(AttributeError):
            setattr(spec, name, getattr(spec, name))
    with pytest.raises(AttributeError):
        spec.extra = 1
    assert not hasattr(spec, "__dict__")


@pytest.mark.parametrize("bad", [
    {"prompt_tokens": 0}, {"max_new_tokens": 0},
    {"tokens_generated": 1}, {"prefill_done": True},
    {"prefill_done": True, "tokens_generated": 11}])
def test_every_way_to_build_a_spec_validates(bad):
    """Copies built by ``_replace``/``_make``, pickling and copying go
    through the validating constructor as well."""
    import copy
    import pickle

    good = RequestSpec(100, 10)
    with pytest.raises(ConfigurationError):
        good._replace(**bad)
    fields = good._asdict()
    fields.update(bad)
    with pytest.raises(ConfigurationError):
        RequestSpec._make(fields.values())
    assert pickle.loads(pickle.dumps(good)) == good
    assert copy.copy(good) == good == copy.deepcopy(good)


def test_submit_takes_only_a_request_spec(kernel):
    engine = _engine(kernel)
    request = engine.submit(RequestSpec(300, 40))
    kernel.run(until=request.done)
    assert request.prompt_tokens == 300 and request.tokens_generated == 40
    with pytest.raises(TypeError):
        engine.submit(200, 50)
