"""Chunked digests hash exactly the bytes of the one-shot originals.

``SpanRecorder.digest`` and ``Tracer.digest`` feed SHA-256 one bounded
chunk at a time.  The frozen one-shot versions below build whole-run
buffers; both must agree on stores that end just before, on and after
each chunk edge, with numpy scalars and non-ASCII text in the payload,
a capped ring of trace records, and a span store materialized midway.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.obs.spans import _DIGEST_PACK, SpanRecorder
from repro.simkernel import SimKernel
from repro.simkernel.tracing import Tracer, _jsonable


def _one_shot_spans(recorder):
    h = hashlib.sha256()
    packed, text = [], []
    for span in recorder._finished:
        if type(span) is tuple:
            name, tid, sid, pid, start, end, attrs = span
            packed.append(_DIGEST_PACK(tid, sid, pid, start, end))
            text.append(f"{name}|{attrs!r}\n")
        else:
            packed.append(_DIGEST_PACK(
                span.trace_id, span.span_id, span.parent_id or 0,
                span.start, span.end if span.end is not None else -1.0))
            text.append(f"{span.name}|{span.attrs!r}\n")
    h.update(b"".join(packed))
    h.update("".join(text).encode())
    return h.hexdigest()


def _one_shot_trace(tracer):
    h = hashlib.sha256()
    for record in tracer.records:
        h.update(json.dumps([record.time, record.kind, record.fields],
                            sort_keys=True, default=_jsonable).encode())
        h.update(b"\n")
    return h.hexdigest()


def _sizes(chunk):
    return (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7)


def _attrs(i):
    return {"engine": f"hops{i % 3}", "tokens": np.int64(i),
            "share": np.float64(i / 7), "tenant": "équipe-推理",
            "ok": i % 5 != 0}


@pytest.mark.parametrize("n", _sizes(SpanRecorder._CHUNK))
def test_span_digest_matches_one_shot_across_chunk_edges(n):
    rec = SpanRecorder(SimKernel(seed=1))
    rec.enabled = True
    for i in range(n):
        if i % 3 == 2:
            span = rec.start_trace("session", n=np.int32(i))
            span.record(i * 0.5, i * 0.5 + 0.25, note="ü")
        else:
            tid, sid = rec.reserve_trace()
            rec.emit("request", tid, None, i * 0.5, i * 0.5 + 1 / 3,
                     _attrs(i), span_id=sid)
        if i == n // 2:
            assert rec.finished            # materialized midway
    assert rec.digest() == _one_shot_spans(rec)
    rec.finished
    assert rec.digest() == _one_shot_spans(rec)


@pytest.mark.parametrize("n", _sizes(Tracer._CHUNK))
@pytest.mark.parametrize("capacity", [None, Tracer._CHUNK + 3])
def test_trace_digest_matches_one_shot_across_chunk_edges(n, capacity):
    kernel = SimKernel(seed=1)
    tracer = kernel.trace
    tracer.clear()
    tracer.set_capacity(capacity)
    for i in range(n):
        kernel.now = i / 3
        tracer.emit("vllm.step", **_attrs(i))
    if capacity is not None:
        assert len(tracer.records) == min(n, capacity)
    assert tracer.digest() == _one_shot_trace(tracer)
