"""Differential oracle for the typed span store.

``SpanRecorder`` keeps closed spans as columns: the kind code, ids and
times in typed arrays, each kind's written fields in typed columns of
their own (strings as intern codes), with recent rows waiting in short
young lists; the ``name|{attrs!r}`` text is rendered only inside
``digest()``.  The frozen reference below is the row store it replaced:
one ``(name, trace, span, parent, start, end, attrs)`` tuple per closed
span, its attributes a dict, its digest text that dict's ``repr``.
Hypothesis drives both through the same sequence of ``start_trace`` /
``start_span`` / ``emit`` / ``emit_many`` / ``clear`` calls, drawing
rows of every declared kind: ``True``/``1`` and ``False``/``0`` in int
and bool fields, strings that need ``repr`` escapes, ids minted long
before their span is written, and bulk writes that cross the flush and
digest chunk size.  Every read must agree: ``digest()``, ``span_count``
and the ``finished`` views.
"""

from __future__ import annotations

import hashlib
import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import spans as spans_module
from repro.obs.spans import KINDS, Span, SpanRecorder
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
        return [Span(name, tid, sid, pid or None, start, end, dict(attrs))
                for name, tid, sid, pid, start, end, attrs in self._rows]

    def start_trace(self):
        self._next_trace += 1
        self._next_span += 1
        return self._next_trace, self._next_span

    def start_span(self):
        self._next_span += 1
        return self._next_span

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

    @property
    def span_count(self):
        return len(self._rows)

    def chunks(self):
        rows = self._rows
        for lo in range(0, len(rows), self._CHUNK):
            yield rows[lo:lo + self._CHUNK]

    def digest(self):
        h = hashlib.sha256()
        for rows in self.chunks():
            h.update(b"".join([
                _PACK(tid, sid, pid, start, end)
                for _n, tid, sid, pid, start, end, _a in rows]))
        for rows in self.chunks():
            h.update("".join([f"{name}|{attrs!r}\n"
                              for name, _t, _s, _p, _b, _e, attrs
                              in rows]).encode())
        return h.hexdigest()

    def clear(self):
        self._rows.clear()


def _attrs(kind, values):
    """The reference's attribute dict of one typed row."""
    values = iter(values)
    return {key: next(values) if isinstance(t, type) else t
            for key, t in kind.fields.items()}


# -- generated call sequences ---------------------------------------------------

TEXT = st.one_of(
    st.sampled_from(("", "'", '"', "\\", "a'b\"c", "é", "推理", "\n", "%r",
                     "hops01:8000")),
    st.text(max_size=3))
#: An int field draws ``True``/``False`` too, passed on as the ints a
#: writer would pass; a bool field draws ``True``/``False`` only.
INT32 = st.one_of(st.sampled_from((0, 1, True, False)), st.integers(-5, 5),
                  st.integers(-2**31, 2**31 - 1)).map(int)
INT64 = st.one_of(st.sampled_from((0, 1, True)),
                  st.integers(-2**63, 2**63 - 1)).map(int)
TYPES = {str: TEXT, int: INT32, np.int64: INT64, bool: st.booleans()}

#: (code, values) of one row of any declared kind
ROWS = st.sampled_from(range(len(KINDS))).flatmap(lambda code: st.tuples(
    st.just(code), st.tuples(*[TYPES[t] for t in KINDS[code].stored])))
TIMES = st.one_of(st.integers(0, 40).map(lambda q: q / 8),
                  st.floats(0.0, 1e6, allow_nan=False),
                  st.floats(1e15, 1e17, allow_nan=False))
TRIO = st.tuples(TIMES, TIMES, TIMES, TIMES, TEXT, INT32, INT32, INT32, INT32)
PICK = st.integers(0, 7)

OPS = st.one_of(
    st.tuples(st.just("emit"), ROWS, PICK, PICK, TIMES, TIMES,
              st.booleans()),
    st.tuples(st.just("many"), PICK, PICK, TRIO),
    st.tuples(st.just("trace"), ROWS),
    st.tuples(st.just("span"), ROWS, PICK, PICK),
    st.tuples(st.just("close"), PICK, TIMES, TIMES),
    st.tuples(st.just("bulk"), st.integers(1, 2 * SpanRecorder._CHUNK + 9)),
    st.tuples(st.just("clear")),
)


def _emit(pair, row, tid, sid, parent, start, end):
    """Write one typed row to both recorders; ``sid`` 0 mints an id."""
    code, values = row
    new, ref = pair
    new.emit(code, tid, sid, parent, start, end, *values)
    ref.emit(KINDS[code].name, tid, parent or None, start, end,
             _attrs(KINDS[code], values), sid or None)


def _trio(pair, tid, parent, trio):
    submitted, admitted, first, end, engine, prompt, cached, out, pre = trio
    new, ref = pair
    new.emit_many(tid, parent, submitted, admitted, first, end, engine,
                  prompt, cached, out, pre)
    ref.emit_many(tid, parent, [
        ("queue", submitted, admitted, None),
        ("prefill", admitted, first, {"engine": engine,
                                      "prompt_tokens": prompt,
                                      "cached_tokens": cached}),
        ("decode", first, end, {"output_tokens": out,
                                "preemptions": pre})])


def _bulk(pair, tid, sid, n):
    """``n`` spans, engine trios and single rows of each kind in turn."""
    for i in range(n // 4):
        _trio(pair, tid, sid, (i * 0.25, i * 0.25, i * 0.25 + 0.125,
                               i * 0.5, f"e{i % 2}", i, i % 3, i % 5, 0))
        kind = KINDS[i % len(KINDS)]
        values = tuple(bool(i % 2) if t is bool else f"é{i % 4}" if t is str
                       else i % 3 for t in kind.stored)
        _emit(pair, (i % len(KINDS), values), tid, 0, sid, i * 0.5,
              i * 0.5 + 1)


def _ids(pair, mint):
    """The same ids minted by ``mint`` on both recorders of ``pair``."""
    ids = [getattr(rec, mint)() for rec in pair]
    assert ids[0] == ids[1]
    return ids[0]


def _apply(op, pair, traces, started):
    """Apply one op to both recorders of ``pair``.  ``traces`` holds
    every ``(trace_id, root_span_id)`` minted; ``started`` the spans
    whose ids are minted and that are not yet written."""
    kind = op[0]
    if kind == "clear":
        for rec in pair:
            rec.clear()
    elif kind == "trace":
        tid, sid = _ids(pair, "start_trace")
        traces.append((tid, sid))
        started.append((op[1], tid, 0, sid))
    elif kind == "span" and traces:
        _k, row, t, p = op
        tid, root = traces[t % len(traces)]
        sid = _ids(pair, "start_span")
        started.append((row, tid, root if p % 2 else 0, sid))
    elif kind == "close" and started:
        row, tid, parent, sid = started.pop(op[1] % len(started))
        _emit(pair, row, tid, sid, parent, op[2], op[3])
    elif kind == "emit":
        _k, row, t, p, start, end, new_trace = op
        if new_trace or not traces:
            tid, sid = _ids(pair, "start_trace")
            traces.append((tid, sid))
            _emit(pair, row, tid, sid, 0, start, end)
        else:
            tid, sid = traces[t % len(traces)]
            _emit(pair, row, tid, 0, sid if p % 2 else 0, start, end)
    elif kind == "many" and traces:
        _k, t, p, trio = op
        tid, sid = traces[t % len(traces)]
        _trio(pair, tid, sid if p % 2 else 0, trio)
    elif kind == "bulk":
        tid, sid = _ids(pair, "start_trace")
        traces.append((tid, sid))
        _bulk(pair, tid, sid, op[1])


def _assert_same(new, ref, chunk):
    assert len(new._head) < spans_module._FIELDS * chunk
    assert new.span_count == ref.span_count
    assert new.finished == ref.finished
    assert ([repr(span.attrs) for span in new.finished]
            == [repr(span.attrs) for span in ref.finished])
    assert new.digest() == ref.digest()


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(OPS, max_size=40),
       chunk=st.sampled_from((3, 8, SpanRecorder._CHUNK)))
def test_columns_match_the_row_store(ops, chunk):
    """Every read of the typed store equals the row store's, at the real
    flush/digest chunk size and at small ones that put chunk edges
    inside ordinary call sequences."""
    kernel = SimKernel(seed=1)
    new = SpanRecorder(kernel)
    ref = _RowRecorder(kernel)
    traces, started = [], []
    with mock.patch.multiple(spans_module, _CHUNK=chunk,
                             _FLUSH=spans_module._FIELDS * chunk):
        for op in ops:
            _apply(op, (new, ref), traces, started)
            assert new.span_count == ref.span_count
        _assert_same(new, ref, chunk)
        # Reads leave the store unchanged: a second pass agrees too.
        _assert_same(new, ref, chunk)
