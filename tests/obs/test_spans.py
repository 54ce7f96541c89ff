"""Unit tests for the span recorder and its determinism guarantees."""

from __future__ import annotations

import enum

import numpy as np

from repro.obs.spans import NULL_SPAN, SpanRecorder
from repro.simkernel import SimKernel


def _recorder(seed=1):
    kernel = SimKernel(seed=seed)
    rec = SpanRecorder(kernel)
    rec.enabled = True
    return kernel, rec


def test_disabled_recorder_hands_out_the_null_span():
    kernel = SimKernel(seed=1)
    kernel.obs.disable()
    rec = kernel.obs.spans
    span = rec.start_trace("request")
    assert span is NULL_SPAN
    assert rec.start_span("route", trace_id=7) is NULL_SPAN
    # Every lifecycle call on the sentinel is a no-op returning a span.
    span.annotate(tenant="t").finish(ok=True)
    span.record(0.0, 1.0, x=1)
    assert span.child("c") is NULL_SPAN
    assert span.attrs == {}            # the shared sentinel never mutates
    assert span.start == 0.0 and span.end is None
    assert rec.finished == []


def test_zero_trace_id_never_opens_a_span():
    _, rec = _recorder()
    assert rec.start_span("route", trace_id=0) is NULL_SPAN


def test_span_tree_parents_children_and_durations():
    kernel, rec = _recorder()
    root = rec.start_trace("request", tenant="batch")
    kernel.run(until=2.0)
    child = root.child("route").annotate(policy="rr")
    kernel.run(until=5.0)
    child.finish(outcome="ok")
    kernel.run(until=7.0)
    root.finish(ok=True)

    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert root.parent_id is None
    assert child.duration == 3.0
    assert root.duration == 7.0
    # Close order: the child closed first.
    assert [s.name for s in rec.finished] == ["route", "request"]
    tree = rec.traces()[root.trace_id]
    assert [s.name for s in tree] == ["request", "route"]  # start-ordered
    assert [s.span_id for s in rec.of_name("route")] == [child.span_id]
    assert root.to_dict()["attrs"] == {"tenant": "batch", "ok": True}


def test_record_sets_explicit_bounds():
    kernel, rec = _recorder()
    kernel.run(until=10.0)
    span = rec.start_span("prefill", trace_id=3, engine="e0")
    span.record(4.0, 6.5, prompt_tokens=128)
    assert (span.start, span.end) == (4.0, 6.5)
    assert span.attrs == {"engine": "e0", "prompt_tokens": 128}


def test_digest_identical_for_identical_paths():
    def run():
        kernel, rec = _recorder()
        for i in range(5):
            root = rec.start_trace("request", i=i)
            kernel.run(until=kernel.now + 1.0)
            root.child("route").finish()
            root.finish(ok=True)
        return rec.digest()

    assert run() == run()


def test_digest_sensitive_to_any_field():
    kernel, rec = _recorder()
    rec.start_trace("request").finish()
    base = rec.digest()
    rec.start_trace("request").finish()
    assert rec.digest() != base
    rec.clear()
    assert rec.finished == []
    assert rec.digest() != base        # empty digest differs from one-span


def test_digest_accepts_numpy_scalars_and_enums():
    class Phase(enum.Enum):
        DECODE = "decode"

    def run():
        kernel, rec = _recorder()
        span = rec.start_trace("request")
        span.finish(tokens=np.int64(42), share=np.float64(0.5),
                    ok=np.bool_(True), phase=Phase.DECODE)
        return rec.digest()                   # must not raise

    digest = run()
    assert len(digest) == 64
    assert run() == digest                    # stable across identical runs
    # ...and sensitive to the values, not just the span structure.
    kernel, rec = _recorder()
    rec.start_trace("request").finish(tokens=np.int64(43))
    assert rec.digest() != digest


def test_trace_ids_are_recorder_local_counters():
    _, rec = _recorder()
    t1 = rec.start_trace("a")
    t2 = rec.start_trace("b")
    assert (t1.trace_id, t2.trace_id) == (1, 2)
    assert t2.span_id > t1.span_id
    # A fresh recorder starts over — nothing process-global leaks in.
    _, rec2 = _recorder(seed=99)
    assert rec2.start_trace("a").trace_id == 1
