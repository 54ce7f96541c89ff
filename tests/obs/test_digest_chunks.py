"""Chunked digests hash exactly the bytes of the one-shot originals.

``SpanRecorder.digest`` and ``Tracer.digest`` feed SHA-256 one bounded
chunk at a time, and both stores render their text as rows arrive.  The
frozen one-shot versions below build whole-run buffers; both must agree
on stores that end just before, on and after each chunk edge and each
young-list edge, with numpy scalars and non-ASCII text in the payload,
and with Span-closed rows mixed in among emitted ones.  The trace test
opts into record retention, which the one-shot reference reads.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.obs import spans as spans_module
from repro.obs.spans import SpanRecorder
from repro.simkernel import SimKernel
from repro.simkernel import tracing as tracing_module
from repro.simkernel.tracing import Tracer, _jsonable

#: The span header as ``struct`` packs it: trace id, span id, parent id
#: (0 = root), start, end (-1.0 while open).
_DIGEST_PACK = struct.Struct("<qqqdd").pack


def _one_shot_spans(recorder):
    h = hashlib.sha256()
    packed, text = [], []
    for span in recorder.finished:
        packed.append(_DIGEST_PACK(
            span.trace_id, span.span_id, span.parent_id or 0,
            span.start, span.end if span.end is not None else -1.0))
        text.append(f"{span.name}|{span.attrs!r}\n")
    h.update(b"".join(packed))
    h.update("".join(text).encode())
    return h.hexdigest()


def _trace_lines(tracer):
    return [json.dumps([record.time, record.kind, record.fields],
                       sort_keys=True, default=_jsonable).encode() + b"\n"
            for record in tracer.records]


def _one_shot_trace(tracer):
    return hashlib.sha256(b"".join(_trace_lines(tracer))).hexdigest()


def _sizes(chunk, young=None):
    edges = (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7)
    if young is None:
        return edges
    return edges + (young - 1, young, young + 1, 2 * young + 3)


def _attrs(i):
    return {"engine": f"hops{i % 3}", "tokens": np.int64(i),
            "share": np.float64(i / 7), "tenant": "équipe-推理",
            "ok": i % 5 != 0}


@pytest.mark.parametrize("n", _sizes(
    SpanRecorder._CHUNK, spans_module._FLUSH // spans_module._FIELDS))
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
    assert rec.digest() == _one_shot_spans(rec)


@pytest.mark.parametrize("n", _sizes(Tracer._CHUNK, tracing_module._FOLD))
def test_trace_digest_matches_one_shot_across_chunk_edges(n):
    kernel = SimKernel(seed=1)
    tracer = kernel.trace
    tracer.clear()
    tracer.retain = True
    for i in range(n):
        kernel.now = i / 3
        tracer.emit("vllm.step", **_attrs(i))
    assert tracer.digest() == _one_shot_trace(tracer)
    # Each full chunk keeps the hash of its own lines.
    lines = _trace_lines(tracer)
    chunk = Tracer._CHUNK
    assert tracer.chunks == [
        hashlib.sha256(b"".join(lines[lo:lo + chunk])).digest()
        for lo in range(0, n - chunk + 1, chunk)]
    # Digesting is read-only: emitting afterwards extends the same hash.
    assert tracer.digest() == _one_shot_trace(tracer)
    tracer.emit("vllm.done", n=n)
    assert tracer.digest() == _one_shot_trace(tracer)


def test_trace_keeps_no_record_unless_asked():
    kernel = SimKernel(seed=1)
    tracer = kernel.trace
    kept = SimKernel(seed=1).trace
    kept.retain = True
    for i in range(3 * tracing_module._FOLD + 5):
        for t in (tracer, kept):
            t.emit("vllm.step", **_attrs(i))
    assert len(tracer._young) < tracing_module._FOLD
    with pytest.raises(RuntimeError, match="retain"):
        tracer.of_kind("vllm.step")
    assert tracer.digest() == kept.digest() == _one_shot_trace(kept)


def test_trace_retain_set_late_refuses_a_partial_list():
    tracer = SimKernel(seed=1).trace
    for i in range(tracing_module._FOLD + 1):
        tracer.emit("vllm.step", **_attrs(i))
    tracer.retain = True                # the first _FOLD are already gone
    tracer.emit("vllm.step", **_attrs(0))
    with pytest.raises(RuntimeError, match="after records were dropped"):
        tracer.records
