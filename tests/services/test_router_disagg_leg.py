"""The disagg router's decode leg carries the caller's call plus the
prefill handoff, field for field."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

from repro.net.http import HttpRequest
from repro.obs.spans import ROUTE_DISAGG
from repro.services.router import LlmRouter
from repro.vllm.spec import CompletionCall, CompletionResult, KvHandoff


def _call_with_every_field_set() -> CompletionCall:
    call = CompletionCall(
        prompt_tokens=321, max_tokens=64, model="m", session="s1",
        cache_salt="salt", priority=3, trace_id=11, trace_parent=12,
        handoff=KvHandoff("stale", 1, 1, 1),
        http=HttpRequest("POST", "/v1/completions", json={"x": 1}))
    # A new CompletionCall field must be set here too, or the decode leg
    # could drop it unseen.
    for f in dataclasses.fields(CompletionCall):
        assert getattr(call, f.name) != f.default, f.name
    return call


def test_decode_leg_call_equals_replace_with_handoff():
    call = _call_with_every_field_set()
    handoff = KvHandoff("prefill-host", 321, 1, 322)
    legs = []

    def forward(leg, session, role, rec, route_sid):
        legs.append((role, leg))
        yield from ()
        if role == "prefill":
            return (CompletionResult(ttft=0.5, latency=0.5, handoff=handoff),
                    SimpleNamespace(key="pre"), 0)
        return (CompletionResult(latency=2.0, output_tokens=64),
                SimpleNamespace(key="dec"), 0)

    router = SimpleNamespace(_forward=forward)
    routes = []
    rec = SimpleNamespace(kernel=SimpleNamespace(now=1.0),
                          emit=lambda kind, *args: routes.append(kind))
    gen = LlmRouter._route_disagg(router, call, rec, 0, 0.0)
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        result = stop.value
    # The route span records an ok two-leg dispatch.
    assert routes == [ROUTE_DISAGG] and result.path == "disagg"
    assert [role for role, _ in legs] == ["prefill", "decode"]
    assert legs[0][1] is call
    decode_call = legs[1][1]
    expected = dataclasses.replace(call, handoff=handoff)
    for f in dataclasses.fields(CompletionCall):
        assert getattr(decode_call, f.name) is getattr(expected, f.name), \
            f.name
    assert decode_call == expected
