"""Per-request span trees on simulated time.

A *span* is a named interval of simulated time with attributes, a
parent, and a trace id — the request-scoped counterpart to the flat
:class:`~repro.simkernel.tracing.Tracer`.  Where the tracer answers
"what happened, in order", spans answer "where did *this one request*
spend its time": a completed trace reads

    request                          (root, from SessionTraffic / Fleet)
      route                          (router pick + proxy; names the backend)
        attempt                      (one FAILED hop; present on failover)
      queue | prefill | decode       (engine phases, from timestamps)

Span ids and trace ids come from **per-recorder counters**, never from
engine request ids: ``Request._ids`` is a process-global
``itertools.count``, so its values differ between a campaign run that
reuses one worker process and one that forks four.  Everything that can
end up in a digest — ids, times, attributes — is derived from the
kernel's virtual clock and the deterministic simulation path, which is
what makes ``SpanRecorder.digest()`` byte-identical across worker
counts.

Spans are *cheap by construction*: components start/finish them only at
request milestones (admission, first token, completion, a failover hop),
never per decode iteration; the engine derives its phase spans from
timestamps it already records.  When the recorder is disabled every
call is a single attribute check returning a shared no-op span.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from collections.abc import Iterable
from math import nan
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel.kernel import SimKernel

__all__ = ["Span", "SpanColumns", "SpanRecorder", "NULL_SPAN"]


class Span:
    """One named interval of simulated time within a trace."""

    __slots__ = ("recorder", "name", "trace_id", "span_id", "parent_id",
                 "start", "end", "attrs")

    def __init__(self, recorder: SpanRecorder | None, name: str,
                 trace_id: int, span_id: int, parent_id: int | None,
                 start: float):
        self.recorder = recorder
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attrs: dict[str, Any] = {}

    # -- lifecycle ----------------------------------------------------------------

    def annotate(self, **attrs: Any) -> Span:
        if self.recorder is not None:
            self.attrs.update(attrs)
        return self

    def child(self, name: str, start: float | None = None) -> Span:
        """Open a child span (same trace, this span as parent)."""
        if self.recorder is None:
            return NULL_SPAN
        return self.recorder._open(name, self.trace_id, self.span_id, start)

    def finish(self, end: float | None = None, **attrs: Any) -> Span:
        """Close the span at ``end`` (default: kernel now)."""
        if self.recorder is None:
            return self
        if attrs:
            self.attrs.update(attrs)
        self.end = self.recorder.kernel.now if end is None else float(end)
        self.recorder._close(self)
        return self

    def record(self, start: float, end: float, **attrs: Any) -> Span:
        """Close a span whose bounds are already known (derived phases)."""
        if self.recorder is None:
            return self
        self.start = float(start)
        return self.finish(end=end, **attrs)

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.name} trace={self.trace_id} "
                f"[{self.start}, {self.end}]>")


#: Shared sentinel returned by every disabled-path call; finish/annotate
#: on it are no-ops, so call sites need no ``if enabled`` of their own.
NULL_SPAN = Span(None, "", 0, 0, None, 0.0)

#: Fixed-width digest prefix, one record per span: trace id, span id,
#: parent id (0 = root), start, end (-1.0 while open).  Span ids start
#: at 1, so 0 is unambiguous for "no parent".
_DIGEST_DTYPE = np.dtype([("trace", "<i8"), ("span", "<i8"),
                          ("parent", "<i8"), ("start", "<f8"),
                          ("end", "<f8")])

#: Spans per digest chunk, and per move of young rows into the columns.
_CHUNK = 4096

#: Values per row of the flat young list: ``name, trace_id, span_id,
#: parent_id or 0, start, end, attrs``.
_FIELDS = 7
#: Young-list length that moves it into the columns.
_FLUSH = _FIELDS * _CHUNK


class SpanColumns(NamedTuple):
    """The span store read column-wise, in close order.

    The arrays are numpy views over the recorder's own arrays, not
    copies.  An array cannot grow while a view of it is alive, so drop
    the views before the recorder writes again.
    """

    name: list[str]
    trace: np.ndarray           # int64
    span: np.ndarray            # int64
    parent: np.ndarray          # int64, 0 for a root
    start: np.ndarray           # float64
    end: np.ndarray             # float64, NaN while open
    attrs: list[dict[str, Any]]


class SpanRecorder:
    """Owns every span of one simulation; cheap when disabled.

    ``start_trace`` opens a root span and mints a fresh trace id; the id
    travels with the request (``repro_trace`` in HTTP bodies) so the
    router and engine attach their spans to the same tree.  Completed
    spans are stored in close order — a deterministic order, since
    closing happens at simulated-time milestones — as columns: ids in
    ``array("q")``, times in ``array("d")`` (NaN for an open end),
    names and attribute dicts in one list each.  Writers extend a flat
    young list by one row of ``_FIELDS`` values; every ``_CHUNK`` rows,
    and before any read, :meth:`_flush` moves it into the columns.  No
    per-span tuple outlives its write, so the garbage collector has
    nothing per span to scan.
    """

    _CHUNK = _CHUNK

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        #: On with ``kernel.obs``; :meth:`Observability.disable` turns
        #: it off.
        self.enabled = True
        self._next_trace = 0
        self._next_span = 0
        self.clear()

    @property
    def finished(self) -> list[Span]:
        """Completed spans in close order, as read-only views: recorder-
        less ``Span``s built from the columns, so annotating or
        finishing one is a no-op and the store never changes."""
        self._flush()
        out = []
        for name, tid, sid, pid, start, end, attrs in zip(
                self._name, self._trace, self._span, self._parent,
                self._start, self._end, self._attrs, strict=True):
            span = Span(None, name, tid, sid, pid or None, start)
            if end == end:                  # NaN marks an open end
                span.end = end
            span.attrs = attrs
            out.append(span)
        return out

    # -- creation -----------------------------------------------------------------

    def start_trace(self, name: str, **attrs: Any) -> Span:
        """Open a root span with a newly-minted trace id."""
        if not self.enabled:
            return NULL_SPAN
        self._next_trace += 1
        span = self._open(name, self._next_trace, None, None)
        if attrs:
            span.attrs.update(attrs)
        return span

    def start_span(self, name: str, trace_id: int,
                   parent_id: int | None = None, **attrs: Any) -> Span:
        """Open a span in an existing trace (id arrived with the request)."""
        if not self.enabled or not trace_id:
            return NULL_SPAN
        span = self._open(name, trace_id, parent_id, None)
        if attrs:
            span.attrs.update(attrs)
        return span

    def reserve_trace(self) -> tuple[int, int]:
        """Mint ``(trace_id, root_span_id)`` without opening a span.

        The zero-allocation counterpart to :meth:`start_trace` for hot
        call sites that close the root with :meth:`emit` at completion
        (passing the reserved id back as ``span_id``).  Returns
        ``(0, 0)`` when recording is off — and a zero trace id makes
        every downstream span call a no-op, so callers need no guard of
        their own.
        """
        if not self.enabled:
            return 0, 0
        self._next_trace += 1
        self._next_span += 1
        return self._next_trace, self._next_span

    def reserve_span(self) -> int:
        """Mint one span id now, to be emitted closed later."""
        self._next_span += 1
        return self._next_span

    def emit(self, name: str, trace_id: int, parent_id: int | None,
             start: float, end: float, attrs: dict[str, Any] | None = None,
             span_id: int | None = None) -> None:
        """Append an already-closed span in one call.

        The hot-path form for spans whose bounds are known at write
        time (the engine's queue/prefill/decode, the fleet's root, the
        router's route): one call, no intermediate open-span state.
        ``attrs`` is adopted, not copied — pass a fresh dict.  A
        ``span_id`` reserved earlier keeps id order matching open
        order; left ``None``, a fresh id is minted.
        """
        if not self.enabled or not trace_id:
            return
        if span_id is None:
            self._next_span += 1
            span_id = self._next_span
        young = self._young
        young += (name, trace_id, span_id, parent_id or 0, start, end,
                  attrs if attrs else {})
        if len(young) >= _FLUSH:
            self._flush()

    def emit_many(self, trace_id: int, parent_id: int | None,
                  phases: Iterable[tuple[str, float, float,
                                         dict[str, Any] | None]]) -> None:
        """Append several closed spans of one trace in close order.

        ``phases`` is an iterable of ``(name, start, end, attrs)`` —
        the engine's per-request queue/prefill/decode trio lands in a
        single call.  Same adoption rule as :meth:`emit`.
        """
        if not self.enabled or not trace_id:
            return
        n = self._next_span
        young = self._young
        pid = parent_id or 0
        for name, start, end, attrs in phases:
            n += 1
            young += (name, trace_id, n, pid, start, end,
                      attrs if attrs else {})
        self._next_span = n
        if len(young) >= _FLUSH:
            self._flush()

    def _open(self, name: str, trace_id: int, parent_id: int | None,
              start: float | None) -> Span:
        self._next_span += 1
        return Span(self, name, trace_id, self._next_span, parent_id,
                    self.kernel.now if start is None else float(start))

    def _close(self, span: Span) -> None:
        young = self._young
        young += (span.name, span.trace_id, span.span_id,
                  span.parent_id or 0, span.start, span.end, span.attrs)
        if len(young) >= _FLUSH:
            self._flush()

    def _flush(self) -> None:
        """Move the young rows into the columns: one stride slice and
        one ``struct`` pack per column."""
        young = self._young
        if not young:
            return
        n = len(young) // _FIELDS
        ints, floats = f"{n}q", f"{n}d"
        self._name += young[0::_FIELDS]
        self._trace.frombytes(struct.pack(ints, *young[1::_FIELDS]))
        self._span.frombytes(struct.pack(ints, *young[2::_FIELDS]))
        self._parent.frombytes(struct.pack(ints, *young[3::_FIELDS]))
        self._start.frombytes(struct.pack(floats, *young[4::_FIELDS]))
        ends = young[5::_FIELDS]
        try:
            self._end.frombytes(struct.pack(floats, *ends))
        except struct.error:            # an open end stores as NaN
            self._end.frombytes(struct.pack(
                floats, *[nan if end is None else end for end in ends]))
        self._attrs += young[6::_FIELDS]
        young.clear()

    # -- queries ------------------------------------------------------------------

    @property
    def span_count(self) -> int:
        """``len(finished)`` without building the views."""
        return len(self._attrs) + len(self._young) // _FIELDS

    def traces(self) -> dict[int, list[Span]]:
        """Finished spans grouped by trace id, start-ordered within."""
        out: dict[int, list[Span]] = {}
        for span in self.finished:
            out.setdefault(span.trace_id, []).append(span)
        for spans in out.values():
            spans.sort(key=lambda s: (s.start, s.span_id))
        return out

    def of_name(self, name: str) -> list[Span]:
        return [s for s in self.finished if s.name == name]

    def columns(self) -> SpanColumns:
        """The whole store as numpy column views, in close order."""
        self._flush()
        return SpanColumns(
            self._name,
            np.frombuffer(self._trace, np.int64),
            np.frombuffer(self._span, np.int64),
            np.frombuffer(self._parent, np.int64),
            np.frombuffer(self._start, np.float64),
            np.frombuffer(self._end, np.float64), self._attrs)

    def digest(self) -> str:
        """Canonical SHA-256 over every finished span.

        Only simulated-time quantities and recorder-local ids feed the
        hash, so equal simulation paths give equal digests regardless of
        campaign worker count — the scorecard witness for spans.

        Serialization is hand-rolled rather than ``json.dumps``: ids
        and bounds pack as fixed-width ``<qqqdd`` records straight from
        the columns; name and attributes hash as ``repr``-rendered text
        (insertion order is fixed by the emitting code, so the dict
        repr is as deterministic as the values — ints, floats, strings,
        bools from the serving components; numpy scalars and enums repr
        deterministically too).  A 30-minute cell finishes ~20k spans,
        and one dumps() per span was the single largest line of
        observability overhead on the hot-cell bench.  Every span's
        packed header hashes before any span's text, one chunk at a
        time.
        """
        cols = self.columns()
        n = len(cols.attrs)
        h = hashlib.sha256()
        head = np.empty(min(n, _CHUNK), _DIGEST_DTYPE)
        for lo in range(0, n, _CHUNK):
            hi = min(n, lo + _CHUNK)
            rec = head[:hi - lo]
            for field in ("trace", "span", "parent", "start"):
                rec[field] = getattr(cols, field)[lo:hi]
            end = cols.end[lo:hi]
            rec["end"] = np.where(np.isnan(end), -1.0, end)
            h.update(rec.tobytes())
        for lo in range(0, n, _CHUNK):
            h.update("".join([
                f"{name}|{attrs!r}\n" for name, attrs
                in zip(cols.name[lo:lo + _CHUNK], cols.attrs[lo:lo + _CHUNK],
                       strict=True)
            ]).encode())
        return h.hexdigest()

    def clear(self) -> None:
        """Drop every finished span (id counters keep counting)."""
        self._young: list[Any] = []
        self._name: list[str] = []
        self._trace = array("q")
        self._span = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._attrs: list[dict[str, Any]] = []
