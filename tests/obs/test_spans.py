"""Unit tests for the span recorder and its determinism guarantees."""

from __future__ import annotations

import enum

import numpy as np
import pytest

from repro.obs.spans import SpanRecorder, by_trace
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
    rec.emit("request", 7, None, 0.0, 1.0, {"tenant": "t"})
    rec.emit_many(7, 1, [("queue", 0.0, 1.0, None)])
    assert rec.finished == [] and rec.span_count == 0


def test_zero_trace_id_never_opens_a_span():
    _, rec = _recorder()
    rec.emit("route", 0, None, 0.0, 1.0)
    rec.emit_many(0, None, [("queue", 0.0, 1.0, {"engine": "e0"})])
    assert rec.finished == []


def test_span_tree_parents_children_and_durations():
    _, rec = _recorder()
    trace_id, root_sid = rec.start_trace()
    route_sid = rec.start_span()
    rec.emit("attempt", trace_id, route_sid, 2.0, 3.0, {"backend": "b0"})
    rec.emit("route", trace_id, root_sid, 2.0, 5.0,
             {"policy": "rr", "outcome": "ok"}, span_id=route_sid)
    rec.emit("request", trace_id, None, 0.0, 7.0,
             {"tenant": "batch", "ok": True}, span_id=root_sid)

    attempt, route, root = rec.finished       # close order
    assert (root.trace_id, root.span_id, root.parent_id) == (1, 1, None)
    assert (route.span_id, route.parent_id) == (2, root.span_id)
    assert (attempt.span_id, attempt.parent_id) == (3, route.span_id)
    assert route.duration == 3.0 and root.duration == 7.0
    assert root.attrs == {"tenant": "batch", "ok": True}
    tree = by_trace(rec.finished)[trace_id]
    assert [s.name for s in tree] == ["request", "route", "attempt"]


def test_record_sets_explicit_bounds():
    """Spans keep the bounds they are written with, not the kernel's
    clock, and ``emit_many`` mints consecutive ids in close order."""
    kernel, rec = _recorder()
    kernel.run(until=10.0)
    trace_id, root_sid = rec.start_trace()
    rec.emit_many(trace_id, root_sid, [
        ("queue", 3.0, 4.0, None),
        ("prefill", 4.0, 6.5, {"engine": "e0", "prompt_tokens": 128})])
    queue, prefill = rec.finished
    assert (queue.start, queue.end, queue.attrs) == (3.0, 4.0, {})
    assert (prefill.start, prefill.end) == (4.0, 6.5)
    assert prefill.attrs == {"engine": "e0", "prompt_tokens": 128}
    assert [queue.span_id, prefill.span_id] == [root_sid + 1, root_sid + 2]
    assert queue.parent_id == prefill.parent_id == root_sid


def test_read_views_are_values():
    """``finished`` builds fresh immutable views: two reads agree and
    neither can write back into the store."""
    _, rec = _recorder()
    trace_id, root_sid = rec.start_trace()
    rec.emit("request", trace_id, None, 0.0, 1.0, {"ok": True},
             span_id=root_sid)
    (span,) = rec.finished
    with pytest.raises(AttributeError):
        span.end = 2.0
    span.attrs["ok"] = False
    assert rec.finished == [span._replace(attrs={"ok": True})]


def test_digest_identical_for_identical_paths():
    def run():
        _, rec = _recorder()
        for i in range(5):
            trace_id, root_sid = rec.start_trace()
            rec.emit("route", trace_id, root_sid, float(i), i + 0.5)
            rec.emit("request", trace_id, None, float(i), i + 1.0,
                     {"i": i, "ok": True}, span_id=root_sid)
        return rec.digest()

    assert run() == run()


def test_digest_sensitive_to_any_field():
    _, rec = _recorder()
    rec.emit("request", rec.start_trace()[0], None, 0.0, 0.0)
    base = rec.digest()
    rec.emit("request", rec.start_trace()[0], None, 0.0, 0.0)
    assert rec.digest() != base
    rec.clear()
    assert rec.finished == []
    assert rec.digest() != base        # empty digest differs from one-span


def test_digest_accepts_numpy_scalars_and_enums():
    class Phase(enum.Enum):
        DECODE = "decode"

    def run(tokens):
        _, rec = _recorder()
        trace_id, root_sid = rec.start_trace()
        rec.emit("request", trace_id, None, 0.0, 1.0,
                 {"tokens": np.int64(tokens), "share": np.float64(0.5),
                  "ok": np.bool_(True), "phase": Phase.DECODE},
                 span_id=root_sid)
        rec.emit_many(trace_id, root_sid, [
            ("decode", 0.5, 1.0, {"n": np.int32(tokens), "p": Phase.DECODE})])
        return rec, rec.digest()                  # must not raise

    rec, digest = run(42)
    assert len(digest) == 64
    assert run(42)[1] == digest                   # stable across identical runs
    # ...and sensitive to the values, not just the span structure.
    assert run(43)[1] != digest
    root, decode = rec.finished
    assert repr(root.attrs) == repr(
        {"tokens": np.int64(42), "share": np.float64(0.5),
         "ok": np.bool_(True), "phase": Phase.DECODE})
    assert decode.attrs == {"n": np.int32(42), "p": Phase.DECODE}


def test_trace_ids_are_recorder_local_counters():
    _, rec = _recorder()
    t1, s1 = rec.start_trace()
    t2, s2 = rec.start_trace()
    assert (t1, t2) == (1, 2)
    assert s2 > s1 and rec.start_span() > s2
    # A fresh recorder starts over — nothing process-global leaks in.
    _, rec2 = _recorder(seed=99)
    assert rec2.start_trace() == (1, 1)
