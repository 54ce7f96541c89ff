"""Unit tests for the span recorder and its determinism guarantees."""

from __future__ import annotations

import pytest

from repro.obs.spans import (ATTEMPT, REQUEST, ROUTE, ROUTE_FAILED,
                             SpanRecorder, by_trace)
from repro.simkernel import SimKernel


def _recorder(seed=1):
    kernel = SimKernel(seed=seed)
    rec = SpanRecorder(kernel)
    rec.enabled = True
    return kernel, rec


def test_disabled_recorder_hands_out_zero_ids():
    kernel = SimKernel(seed=1)
    kernel.obs.disable()
    rec = kernel.obs.spans
    assert rec.start_trace() == (0, 0)
    # Writes are no-ops when off, whatever trace id they carry.
    rec.emit(REQUEST, 7, 0, 0, 0.0, 1.0, "t", True, 0)
    rec.emit_many(7, 1, 0.0, 1.0, 1.0, 1.0, "e0", 0, 0, 0, 0)
    assert rec.finished == [] and rec.span_count == 0


def test_zero_trace_id_never_opens_a_span():
    _, rec = _recorder()
    rec.emit(ROUTE_FAILED, 0, 0, 0, 0.0, 1.0, 1)
    rec.emit_many(0, 0, 0.0, 1.0, 1.0, 1.0, "e0", 0, 0, 0, 0)
    assert rec.finished == []


def test_span_tree_parents_children_and_durations():
    _, rec = _recorder()
    trace_id, root_sid = rec.start_trace()
    route_sid = rec.start_span()
    rec.emit(ATTEMPT, trace_id, 0, route_sid, 2.0, 3.0, "b0", "error")
    rec.emit(ROUTE, trace_id, route_sid, root_sid, 2.0, 5.0, "b1", 2)
    rec.emit(REQUEST, trace_id, root_sid, 0, 0.0, 7.0, "batch", True, 9)

    attempt, route, root = rec.finished       # close order
    assert (root.trace_id, root.span_id, root.parent_id) == (1, 1, None)
    assert (route.span_id, route.parent_id) == (2, root.span_id)
    assert (attempt.span_id, attempt.parent_id) == (3, route.span_id)
    assert route.duration == 3.0 and root.duration == 7.0
    assert root.attrs == {"tenant": "batch", "ok": True,
                          "output_tokens": 9}
    assert route.attrs == {"backend": "b1", "attempts": 2, "outcome": "ok"}
    assert attempt.attrs == {"backend": "b0", "outcome": "error"}
    tree = by_trace(rec.finished)[trace_id]
    assert [s.name for s in tree] == ["request", "route", "attempt"]


def test_record_sets_explicit_bounds():
    """Spans keep the bounds they are written with, not the kernel's
    clock, and ``emit_many`` mints consecutive ids in close order."""
    kernel, rec = _recorder()
    kernel.run(until=10.0)
    trace_id, root_sid = rec.start_trace()
    rec.emit_many(trace_id, root_sid, 3.0, 4.0, 6.5, 8.0, "e0", 128, 16,
                  32, 1)
    queue, prefill, decode = rec.finished
    assert (queue.start, queue.end, queue.attrs) == (3.0, 4.0, {})
    assert (prefill.start, prefill.end) == (4.0, 6.5)
    assert prefill.attrs == {"engine": "e0", "prompt_tokens": 128,
                             "cached_tokens": 16}
    assert (decode.start, decode.end) == (6.5, 8.0)
    assert decode.attrs == {"output_tokens": 32, "preemptions": 1}
    assert [queue.span_id, prefill.span_id, decode.span_id] == [
        root_sid + 1, root_sid + 2, root_sid + 3]
    assert queue.parent_id == prefill.parent_id == root_sid


def test_read_views_are_values():
    """``finished`` builds fresh immutable views: two reads agree and
    neither can write back into the store."""
    _, rec = _recorder()
    trace_id, root_sid = rec.start_trace()
    rec.emit(REQUEST, trace_id, root_sid, 0, 0.0, 1.0, "t", True, 3)
    (span,) = rec.finished
    with pytest.raises(AttributeError):
        span.end = 2.0
    span.attrs["ok"] = False
    assert rec.finished == [span._replace(
        attrs={"tenant": "t", "ok": True, "output_tokens": 3})]


def test_digest_identical_for_identical_paths():
    def run():
        _, rec = _recorder()
        for i in range(5):
            trace_id, root_sid = rec.start_trace()
            rec.emit(ROUTE_FAILED, trace_id, 0, root_sid, float(i), i + 0.5,
                     1)
            rec.emit(REQUEST, trace_id, root_sid, 0, float(i), i + 1.0,
                     f"t{i}", True, i)
        return rec.digest()

    assert run() == run()


def test_digest_sensitive_to_any_field():
    _, rec = _recorder()
    rec.emit(REQUEST, rec.start_trace()[0], 0, 0, 0.0, 0.0, "t", True, 0)
    base = rec.digest()
    rec.emit(REQUEST, rec.start_trace()[0], 0, 0, 0.0, 0.0, "t", True, 0)
    assert rec.digest() != base
    rec.clear()
    assert rec.finished == []
    assert rec.digest() != base        # empty digest differs from one-span


def test_trace_ids_are_recorder_local_counters():
    _, rec = _recorder()
    t1, s1 = rec.start_trace()
    t2, s2 = rec.start_trace()
    assert (t1, t2) == (1, 2)
    assert s2 > s1 and rec.start_span() > s2
    # A fresh recorder starts over — nothing process-global leaks in.
    _, rec2 = _recorder(seed=99)
    assert rec2.start_trace() == (1, 1)
