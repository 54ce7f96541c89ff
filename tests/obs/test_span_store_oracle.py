"""Differential oracle for the columnar span store.

``SpanRecorder`` keeps closed spans as columns: ids and times in typed
arrays, names as codes into one table, attributes in one list, with
recent rows waiting in a short young list.  The frozen reference below
is the row store it replaced: one ``(name, trace, span, parent, start,
end, attrs)`` tuple per closed span.  Hypothesis drives both through the
same sequence of ``emit`` / ``emit_many`` / ``start_trace`` /
``start_span`` + ``finish`` / ``record`` / ``clear`` calls — with open
ends, numpy-scalar attributes and bulk writes that cross the flush and
digest chunk size — and every read must agree: ``digest()``,
``span_count``, the ``finished`` views, ``traces()`` and ``of_name()``.
"""

from __future__ import annotations

import hashlib
import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import spans as spans_module
from repro.obs.spans import Span, SpanRecorder
from repro.simkernel import SimKernel

# -- frozen reference -----------------------------------------------------------

_PACK = struct.Struct("<qqqdd").pack


class _RowRecorder:
    """The tuple-per-span store, as it was before the columns."""

    _CHUNK = 4096

    def __init__(self, kernel):
        self.kernel = kernel
        self.enabled = True
        self._rows = []
        self._next_trace = 0
        self._next_span = 0

    @property
    def finished(self):
        out = []
        for name, tid, sid, pid, start, end, attrs in self._rows:
            span = Span(None, name, tid, sid, pid or None, start)
            span.end = end
            span.attrs = attrs
            out.append(span)
        return out

    def start_trace(self, name, **attrs):
        self._next_trace += 1
        span = self._open(name, self._next_trace, None, None)
        span.attrs.update(attrs)
        return span

    def start_span(self, name, trace_id, parent_id=None, **attrs):
        span = self._open(name, trace_id, parent_id, None)
        span.attrs.update(attrs)
        return span

    def reserve_trace(self):
        self._next_trace += 1
        self._next_span += 1
        return self._next_trace, self._next_span

    def emit(self, name, trace_id, parent_id, start, end, attrs=None,
             span_id=None):
        if not trace_id:
            return
        if span_id is None:
            self._next_span += 1
            span_id = self._next_span
        self._rows.append((name, trace_id, span_id, parent_id or 0, start,
                           end, attrs if attrs else {}))

    def emit_many(self, trace_id, parent_id, phases):
        if not trace_id:
            return
        n = self._next_span
        for name, start, end, attrs in phases:
            n += 1
            self._rows.append((name, trace_id, n, parent_id or 0, start, end,
                               attrs if attrs else {}))
        self._next_span = n

    def _open(self, name, trace_id, parent_id, start):
        self._next_span += 1
        return Span(self, name, trace_id, self._next_span, parent_id,
                    self.kernel.now if start is None else float(start))

    def _close(self, span):
        self._rows.append((span.name, span.trace_id, span.span_id,
                           span.parent_id or 0, span.start, span.end,
                           span.attrs))

    @property
    def span_count(self):
        return len(self._rows)

    def traces(self):
        out = {}
        for span in self.finished:
            out.setdefault(span.trace_id, []).append(span)
        for spans in out.values():
            spans.sort(key=lambda s: (s.start, s.span_id))
        return out

    def of_name(self, name):
        return [s for s in self.finished if s.name == name]

    def chunks(self):
        rows = self._rows
        for lo in range(0, len(rows), self._CHUNK):
            yield rows[lo:lo + self._CHUNK]

    def digest(self):
        h = hashlib.sha256()
        for rows in self.chunks():
            h.update(b"".join([
                _PACK(tid, sid, pid, start, -1.0 if end is None else end)
                for _n, tid, sid, pid, start, end, _a in rows]))
        for rows in self.chunks():
            h.update("".join([f"{name}|{attrs!r}\n"
                              for name, _t, _s, _p, _b, _e, attrs
                              in rows]).encode())
        return h.hexdigest()

    def clear(self):
        self._rows.clear()


# -- generated call sequences ---------------------------------------------------

NAMES = st.sampled_from(("request", "route", "queue", "prefill", "decode",
                         "attempt", "réseau"))
TIMES = st.one_of(st.integers(0, 40).map(lambda q: q / 8),
                  st.floats(0.0, 1e6, allow_nan=False),
                  st.floats(1e15, 1e17, allow_nan=False))
ENDS = st.one_of(st.none(), TIMES)
VALUES = st.one_of(
    st.integers(-5, 5), st.booleans(), st.text(max_size=3),
    st.integers(0, 9).map(np.int64), st.integers(0, 9).map(np.int32),
    st.floats(0.0, 1.0, allow_nan=False).map(np.float64))
ATTRS = st.one_of(st.none(),
                  st.dictionaries(st.sampled_from(("ok", "engine", "n")),
                                  VALUES, max_size=3))
PICK = st.integers(0, 7)

OPS = st.one_of(
    st.tuples(st.just("emit"), NAMES, PICK, PICK, TIMES, ENDS, ATTRS,
              st.booleans()),
    st.tuples(st.just("many"), PICK, PICK,
              st.lists(st.tuples(NAMES, TIMES, ENDS, ATTRS), max_size=4)),
    st.tuples(st.just("trace"), NAMES, ATTRS),
    st.tuples(st.just("span"), NAMES, PICK, PICK, ATTRS),
    st.tuples(st.just("finish"), PICK, ENDS, ATTRS),
    st.tuples(st.just("record"), PICK, TIMES, TIMES, ATTRS),
    st.tuples(st.just("advance"), TIMES),
    st.tuples(st.just("bulk"), st.integers(1, 2 * SpanRecorder._CHUNK + 9)),
    st.tuples(st.just("clear")),
)


def _fresh(attrs):
    return None if attrs is None else dict(attrs)


def _bulk_rows(n):
    """``n`` engine-style phase rows; every fifth end is open."""
    return [(("queue", "prefill", "decode")[i % 3], i * 0.25,
             None if i % 5 == 4 else i * 0.25 + 0.125,
             {"tokens": np.int64(i), "engine": f"e{i % 2}"} if i % 2 else None)
            for i in range(n)]


def _apply(op, pair, kernel, traces, opened):
    """Apply one op to both recorders of ``pair``."""
    kind = op[0]
    if kind == "advance":
        kernel.now = op[1]
    elif kind == "clear":
        for rec in pair:
            rec.clear()
    elif kind == "trace":
        _k, name, attrs = op
        both = [rec.start_trace(name, **(attrs or {})) for rec in pair]
        traces.append((both[0].trace_id, both[0].span_id))
        opened.append(both)
    elif kind == "span" and traces:
        _k, name, t, p, attrs = op
        tid, sid = traces[t % len(traces)]
        parent = sid if p % 2 else None
        opened.append([rec.start_span(name, tid, parent, **(attrs or {}))
                       for rec in pair])
    elif kind in ("finish", "record") and opened:
        both = opened.pop(op[1] % len(opened))
        for span in both:
            if kind == "finish":
                span.finish(op[2], **(op[3] or {}))
            else:
                span.record(op[2], op[3], **(op[4] or {}))
    elif kind == "emit":
        _k, name, t, p, start, end, attrs, reserve = op
        if reserve or not traces:
            ids = [rec.reserve_trace() for rec in pair]
            traces.append(ids[0])
            tid, sid = ids[0]
            for rec in pair:
                rec.emit(name, tid, None, start, end, _fresh(attrs),
                         span_id=sid)
        else:
            tid, sid = traces[t % len(traces)]
            for rec in pair:
                rec.emit(name, tid, sid if p % 2 else None, start, end,
                         _fresh(attrs))
    elif kind == "many" and traces:
        _k, t, p, phases = op
        tid, sid = traces[t % len(traces)]
        for rec in pair:
            rec.emit_many(tid, sid if p % 2 else None,
                          [(n, s, e, _fresh(a)) for n, s, e, a in phases])
    elif kind == "bulk":
        ids = [rec.reserve_trace() for rec in pair]
        traces.append(ids[0])
        tid, sid = ids[0]
        for rec in pair:
            rec.emit_many(tid, sid, _bulk_rows(op[1]))


def _views(spans):
    return [span.to_dict() for span in spans]


def _assert_same(new, ref, chunk):
    assert len(new._young) < spans_module._FIELDS * chunk
    assert new.span_count == ref.span_count
    assert _views(new.finished) == _views(ref.finished)
    assert ({tid: _views(spans) for tid, spans in new.traces().items()}
            == {tid: _views(spans) for tid, spans in ref.traces().items()})
    for name in ("request", "decode", "réseau", "absent"):
        assert _views(new.of_name(name)) == _views(ref.of_name(name))
    assert new.digest() == ref.digest()


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(OPS, max_size=40),
       chunk=st.sampled_from((3, 8, SpanRecorder._CHUNK)))
def test_columns_match_the_row_store(ops, chunk):
    """Every read of the columnar store equals the row store's, at the
    real flush/digest chunk size and at small ones that put chunk edges
    inside ordinary call sequences."""
    kernel = SimKernel(seed=1)
    new = SpanRecorder(kernel)
    ref = _RowRecorder(kernel)
    traces, opened = [], []
    with mock.patch.multiple(spans_module, _CHUNK=chunk,
                             _FLUSH=spans_module._FIELDS * chunk):
        for op in ops:
            _apply(op, (new, ref), kernel, traces, opened)
            assert new.span_count == ref.span_count
        _assert_same(new, ref, chunk)
        # Reads leave the store unchanged: a second pass agrees too.
        _assert_same(new, ref, chunk)


def test_an_open_end_reads_back_as_none():
    kernel = SimKernel(seed=1)
    rec = SpanRecorder(kernel)
    tid, sid = rec.reserve_trace()
    rec.emit("request", tid, None, 1.5, None, {"ok": True}, span_id=sid)
    rec.emit("decode", tid, sid, 1.5, 2.0)
    (root, decode) = rec.finished
    assert root.end is None and root.duration == 0.0
    assert decode.end == 2.0
    ref = _RowRecorder(kernel)
    ref.emit("request", tid, None, 1.5, None, {"ok": True}, span_id=sid)
    ref.emit("decode", tid, sid, 1.5, 2.0, span_id=sid + 1)
    assert rec.digest() == ref.digest()
