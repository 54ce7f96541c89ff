"""Differential oracle for the columnar span store.

``SpanRecorder`` keeps closed spans as columns: ids and times in typed
arrays, names in a list, attributes as their rendered digest text (plus
a side store for dicts whose text does not read back), with recent rows
waiting in a short young list.  The frozen reference below
is the row store it replaced: one ``(name, trace, span, parent, start,
end, attrs)`` tuple per closed span.  Hypothesis drives both through the
same sequence of ``start_trace`` / ``start_span`` / ``emit`` /
``emit_many`` / ``clear`` calls — with ids minted long before their
span is written, numpy-scalar attributes and bulk writes that cross the
flush and digest chunk size — and every read must agree: ``digest()``,
``span_count`` and the ``finished`` views (attributes ``repr``-equal to
what was written).
"""

from __future__ import annotations

import enum
import hashlib
import math
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
        return [Span(name, tid, sid, pid or None, start, end, attrs)
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


# -- generated call sequences ---------------------------------------------------

NAMES = st.sampled_from(("request", "route", "queue", "prefill", "decode",
                         "attempt", "réseau"))
TIMES = st.one_of(st.integers(0, 40).map(lambda q: q / 8),
                  st.floats(0.0, 1e6, allow_nan=False),
                  st.floats(1e15, 1e17, allow_nan=False))
VALUES = st.one_of(
    st.integers(-5, 5), st.booleans(), st.text(max_size=3),
    st.integers(0, 9).map(np.int64), st.integers(0, 9).map(np.int32),
    st.floats(0.0, 1.0, allow_nan=False).map(np.float64),
    st.sampled_from((math.inf, -math.inf, -0.0, 1e-05, 0.1, None)),
    st.sampled_from(("(", "<np>", "'ok': False", "a\nb")))
ATTRS = st.one_of(st.none(),
                  st.dictionaries(st.sampled_from(("ok", "engine", "n")),
                                  VALUES, max_size=3))
PICK = st.integers(0, 7)

OPS = st.one_of(
    st.tuples(st.just("emit"), NAMES, PICK, PICK, TIMES, TIMES, ATTRS,
              st.booleans()),
    st.tuples(st.just("many"), PICK, PICK,
              st.lists(st.tuples(NAMES, TIMES, TIMES, ATTRS), max_size=4)),
    st.tuples(st.just("trace"), NAMES, ATTRS),
    st.tuples(st.just("span"), NAMES, PICK, PICK, ATTRS),
    st.tuples(st.just("close"), PICK, TIMES, TIMES),
    st.tuples(st.just("bulk"), st.integers(1, 2 * SpanRecorder._CHUNK + 9)),
    st.tuples(st.just("clear")),
)


def _fresh(attrs):
    return None if attrs is None else dict(attrs)


def _bulk_rows(n):
    """``n`` engine-style phase rows."""
    return [(("queue", "prefill", "decode")[i % 3], i * 0.25,
             i * 0.25 + 0.125,
             {"tokens": np.int64(i), "engine": f"e{i % 2}"} if i % 2 else None)
            for i in range(n)]


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
        _k, name, attrs = op
        tid, sid = _ids(pair, "start_trace")
        traces.append((tid, sid))
        started.append((name, tid, None, sid, attrs))
    elif kind == "span" and traces:
        _k, name, t, p, attrs = op
        tid, root = traces[t % len(traces)]
        sid = _ids(pair, "start_span")
        started.append((name, tid, root if p % 2 else None, sid, attrs))
    elif kind == "close" and started:
        name, tid, parent, sid, attrs = started.pop(op[1] % len(started))
        for rec in pair:
            rec.emit(name, tid, parent, op[2], op[3], _fresh(attrs),
                     span_id=sid)
    elif kind == "emit":
        _k, name, t, p, start, end, attrs, new_trace = op
        if new_trace or not traces:
            tid, sid = _ids(pair, "start_trace")
            traces.append((tid, sid))
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
        tid, sid = _ids(pair, "start_trace")
        traces.append((tid, sid))
        for rec in pair:
            rec.emit_many(tid, sid, _bulk_rows(op[1]))


def _assert_same(new, ref, chunk):
    assert len(new._young) < spans_module._FIELDS * chunk
    assert new.span_count == ref.span_count
    assert new.finished == ref.finished
    assert ([repr(span.attrs) for span in new.finished]
            == [repr(span.attrs) for span in ref.finished])
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
    traces, started = [], []
    with mock.patch.multiple(spans_module, _CHUNK=chunk,
                             _FLUSH=spans_module._FIELDS * chunk):
        for op in ops:
            _apply(op, (new, ref), traces, started)
            assert new.span_count == ref.span_count
        _assert_same(new, ref, chunk)
        # Reads leave the store unchanged: a second pass agrees too.
        _assert_same(new, ref, chunk)


class _Mode(enum.Enum):
    FAST = "fast"


def test_attrs_read_back_repr_equal_whatever_their_values():
    """Text that reads back, and dicts kept aside that would not: NaN
    and infinities, enums, numpy scalars inside containers, strings
    that look like reprs, and falsy ``ok`` values of several types."""
    kernel = SimKernel(seed=1)
    rec, ref = SpanRecorder(kernel), _RowRecorder(kernel)
    written = [
        {"ok": False, "x": math.nan, "y": -math.inf},
        {"mode": _Mode.FAST, "ok": np.False_},
        {"tokens": [np.int64(3), 4], "pair": (1, "a")},
        {"note": "f(x) < g(x)", "nested": {"k": [1, 2.5]}, "ok": 0},
        {"ok": True, "none": None, "neg": -0.0},
        {},
        {"ok": "yes", "b": b"\x00"},
    ]
    for i, attrs in enumerate(written):
        tid, sid = rec.start_trace()
        for store in (rec, ref):
            store.emit("request", tid, None, float(i), i + 0.5, dict(attrs),
                       span_id=sid)
    got = [span.attrs for span in rec.finished]
    assert [repr(a) for a in got] == [repr(a) for a in written]
    assert rec.digest() == ref.digest()
    assert rec.columns().ok.tolist() == [
        bool(a.get("ok", True)) for a in written]


@mock.patch.object(spans_module, "_FLUSH", spans_module._FIELDS)
def test_each_flush_decides_its_own_side_store():
    """One-span flushes: a numpy bool (``np.True_``, no parenthesis)
    and a NaN alone in their blocks still read back."""
    kernel = SimKernel(seed=1)
    rec, ref = SpanRecorder(kernel), _RowRecorder(kernel)
    written = [{"ok": np.True_}, {"x": math.nan}, {"ok": np.False_},
               {"n": 1}]
    for store in (rec, ref):
        tid, _sid = store.start_trace()
        for i, attrs in enumerate(written):
            store.emit("request", tid, None, float(i), i + 1.0, dict(attrs))
    assert ([repr(span.attrs) for span in rec.finished]
            == [repr(a) for a in written])
    assert rec.digest() == ref.digest()
    assert rec.columns().ok.tolist() == [1, 1, 0, 1]
