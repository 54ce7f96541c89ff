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

Every span has a declared *kind*: one name plus a fixed, ordered tuple
of typed attribute fields, declared once below (``REQUEST``, ``ROUTE``,
...).  Writers pass the values positionally; a field declared with a
value instead of a type holds that value in every span of its kind.

Span and trace ids come from **per-recorder counters**, never from the
process-global engine request ids, and times from the kernel's virtual
clock, so ``SpanRecorder.digest()`` is byte-identical across campaign
worker counts.

There is one way to write a span: mint ids with ``start_trace``/
``start_span`` when the work starts, and write the span closed with
``emit``/``emit_many`` at a request milestone, never per decode
iteration.  A disabled recorder hands out trace id 0, and every write
with trace id 0 returns after one check.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from collections.abc import Iterable, Iterator
from itertools import repeat
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel.kernel import SimKernel

__all__ = ["KINDS", "Span", "SpanColumns", "SpanKind", "SpanRecorder",
           "by_trace"]


class Span(NamedTuple):
    """One stored span read back from the recorder: a value, not a
    handle, so reading it never changes the store."""

    name: str
    trace_id: int
    span_id: int
    parent_id: int | None       # None for a root
    start: float
    end: float
    attrs: dict[str, Any]

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Field type -> ``array`` typecode of its column; a ``str`` stores its
#: intern code, and ``np.int64`` is for values past 2**31 (byte counts).
_TYPECODE = {str: "i", bool: "b", int: "i", np.int64: "q"}


class SpanKind(NamedTuple):
    """One declared span kind: a name and its ordered attribute fields."""

    name: str
    fields: dict[str, Any]            # key -> type, or its fixed value
    stored: tuple[Any, ...]           # the types of the written fields
    template: str                     # the digest line, ``%r`` per field


#: Every declared kind, indexed by its code.
KINDS: list[SpanKind] = []


def _kind(name: str, **fields: Any) -> int:
    """Declare a kind; returns its code, the first argument of ``emit``."""
    parts = [f"{key!r}: " + ("%r" if isinstance(t, type)
                             else repr(t).replace("%", "%%"))
             for key, t in fields.items()]
    KINDS.append(SpanKind(
        name, fields,
        tuple(t for t in fields.values() if isinstance(t, type)),
        f"{name}|{{" + ", ".join(parts) + "}\n"))
    return len(KINDS) - 1


# Writers: Fleet.request (REQUEST*), LlmRouter (ROUTE*, ATTEMPT), the
# engine's trio (QUEUE, PREFILL, DECODE), VllmOpenAIServer (KV_TRANSFER)
# and SessionTraffic (SESSION).
REQUEST = _kind("request", tenant=str, ok=bool, output_tokens=int)
REQUEST_TURN = _kind("request", tenant=str, ok=bool, output_tokens=int,
                     turn=int)
ROUTE = _kind("route", backend=str, attempts=int, outcome="ok")
ROUTE_FAILED = _kind("route", attempts=int, outcome="failed")
ROUTE_DISAGG = _kind("route", prefill=str, decode=str, attempts=int,
                     path="disagg", outcome="ok")
ROUTE_PREFILL_ONLY = _kind("route", prefill=str, attempts=int,
                           path="disagg", outcome="ok")
ROUTE_PREFILL_FAILED = _kind("route", attempts=int, path="disagg",
                             outcome="failed", leg="prefill")
ROUTE_DECODE_FAILED = _kind("route", prefill=str, attempts=int,
                            path="disagg", outcome="failed", leg="decode")
ATTEMPT = _kind("attempt", backend=str, outcome=str)
QUEUE = _kind("queue")
PREFILL = _kind("prefill", engine=str, prompt_tokens=int, cached_tokens=int)
DECODE = _kind("decode", output_tokens=int, preemptions=int)
KV_TRANSFER = _kind("kv_transfer", src=str, dst=str, bytes=np.int64,
                    kv_tokens=int, engine=str)
SESSION = _kind("session", session=str, tenant=str, turns=int, outcome=str,
                context_tokens=int)


#: Fixed-width digest prefix, one record per span: trace id, span id,
#: parent id (0 = root), start, end.  Span ids start at 1, so 0 is
#: unambiguous for "no parent".
_DIGEST_DTYPE = np.dtype("<i8,<i8,<i8,<f8,<f8")

#: Spans per digest chunk, headers and text alike.
_CHUNK = 4096

#: Values per row of the young header list: ``kind, trace_id, span_id,
#: parent_id, start, end``.
_FIELDS = 6
#: Young-list length that moves it into the columns (512 rows).
_FLUSH = _FIELDS * 512


def by_trace(spans: Iterable[Span]) -> dict[int, list[Span]]:
    """``spans`` grouped by trace id, start-ordered within."""
    out: dict[int, list[Span]] = {}
    for span in spans:
        out.setdefault(span.trace_id, []).append(span)
    for group in out.values():
        group.sort(key=lambda s: (s.start, s.span_id))
    return out


class SpanColumns(NamedTuple):
    """The span store read column-wise, in close order: numpy views of
    the recorder's arrays, to drop before the recorder writes again."""

    kind: np.ndarray            # uint8, the kind code
    trace: np.ndarray           # int64
    span: np.ndarray            # int64
    parent: np.ndarray          # int64, 0 for a root
    start: np.ndarray           # float64
    end: np.ndarray             # float64
    ok: np.ndarray              # bool: a request's ``ok``, else True


class SpanRecorder:
    """Owns every span of one simulation; cheap when disabled.

    The write surface is four calls: ``start_trace`` (a trace id, which
    travels with the request, and its root's span id), ``start_span``
    (one more span id), ``emit`` (one closed span of a declared kind)
    and ``emit_many`` (the engine's queue/prefill/decode trio).  Spans
    are stored in close order as columns: kind codes in a
    ``bytearray``, ids and bounds in ``array("q")``/``array("d")``, and
    per kind one typed column per written field (strings as intern
    codes), the k-th span of a kind being row k.  Writers extend flat
    young lists, which :meth:`_flush` packs every 512 spans and before
    any read.  The digest text is rendered only inside :meth:`digest`.
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
        """Stored spans in close order, as :class:`Span` values with
        fresh attribute dicts: for reports, not the run path."""
        self._flush()
        kinds = list(self._kind)
        rows = list(map(self._attr_rows, KINDS, self._columns))
        return [Span(KINDS[code].name, tid, sid, pid or None, start, end,
                     attrs)
                for code, tid, sid, pid, start, end, attrs in zip(
                    kinds, *self._heads,
                    map(next, map(rows.__getitem__, kinds)), strict=True)]

    # -- writing ------------------------------------------------------------------

    def start_trace(self) -> tuple[int, int]:
        """Mint ``(trace_id, root_span_id)`` for a request starting now.

        The root is written closed with :meth:`emit` at completion,
        passing the root id back as ``span_id``.  Returns ``(0, 0)``
        when recording is off — and a zero trace id makes every write
        in that trace a no-op, so callers need no guard of their own.
        """
        if not self.enabled:
            return 0, 0
        self._next_trace += 1
        self._next_span += 1
        return self._next_trace, self._next_span

    def start_span(self) -> int:
        """Mint one span id now, to be emitted closed later."""
        self._next_span += 1
        return self._next_span

    def emit(self, kind: int, trace_id: int, span_id: int, parent_id: int,
             start: float, end: float, *values: Any) -> None:
        """Append one closed span of ``kind``; ``values`` are its written
        fields in declaration order, of their declared types.  A span id
        minted by :meth:`start_trace`/:meth:`start_span` keeps id order
        matching start order; 0 mints one.  A root's parent is 0."""
        if not self.enabled or not trace_id:
            return
        if not span_id:
            self._next_span += 1
            span_id = self._next_span
        head = self._head
        head += (kind, trace_id, span_id, parent_id, start, end)
        self._young[kind] += values
        if len(head) >= _FLUSH:
            self._flush()

    def emit_many(self, trace_id: int, parent_id: int, submitted: float,
                  admitted: float, first: float, end: float, engine: str,
                  prompt_tokens: int, cached_tokens: int,
                  output_tokens: int, preemptions: int) -> None:
        """Append one request's engine trio, ``queue`` [submitted,
        admitted), ``prefill`` [admitted, first) and ``decode`` [first,
        end), with three consecutive fresh span ids."""
        if not self.enabled or not trace_id:
            return
        n = self._next_span
        self._next_span = n + 3
        head = self._head
        head += (QUEUE, trace_id, n + 1, parent_id, submitted, admitted,
                 PREFILL, trace_id, n + 2, parent_id, admitted, first,
                 DECODE, trace_id, n + 3, parent_id, first, end)
        young = self._young
        young[PREFILL] += (engine, prompt_tokens, cached_tokens)
        young[DECODE] += (output_tokens, preemptions)
        if len(head) >= _FLUSH:
            self._flush()

    def _flush(self) -> None:
        """Move the young rows into the columns: one stride slice and
        one ``struct`` pack per column."""
        head = self._head
        if not head:
            return
        self._kind += bytes(head[0::_FIELDS])
        for kind, young, columns in zip(KINDS, self._young, self._columns):
            if young:
                width = len(kind.stored)
                for j, (t, column) in enumerate(zip(kind.stored, columns)):
                    values = young[j::width]
                    if t is str:
                        values = self._intern(values)
                    column.frombytes(struct.pack(
                        f"{len(values)}{column.typecode}", *values))
                young.clear()
        n = len(head) // _FIELDS
        for j, column in enumerate(self._heads, 1):
            column.frombytes(struct.pack(f"{n}{column.typecode}",
                                         *head[j::_FIELDS]))
        head.clear()

    def _intern(self, values: list[str]) -> list[int]:
        """Each string's intern code, minting codes for new ones."""
        codes = self._codes
        try:
            return list(map(codes.__getitem__, values))
        except KeyError:
            for value in values:
                if value not in codes:
                    codes[value] = len(codes)
            return list(map(codes.__getitem__, values))

    # -- queries ------------------------------------------------------------------

    @property
    def span_count(self) -> int:
        """``len(finished)`` without building the views."""
        return len(self._kind) + len(self._head) // _FIELDS

    def _attr_rows(self, kind: SpanKind,
                   columns: list[array]) -> Iterator[dict[str, Any]]:
        """Fresh attribute dicts of ``kind``'s spans, in order."""
        columns = iter(columns)
        strings = list(self._codes)
        fields = [repeat(t) if not isinstance(t, type)
                  else map(strings.__getitem__, next(columns)) if t is str
                  else map(bool, next(columns)) if t is bool
                  else iter(next(columns)) for t in kind.fields.values()]
        if not fields:
            return iter(dict, None)
        return map(dict, map(zip, repeat(tuple(kind.fields)), zip(*fields)))

    def columns(self) -> SpanColumns:
        """The whole store as numpy column views, in close order."""
        self._flush()
        kind = np.frombuffer(self._kind, np.uint8)
        ok = np.ones(len(kind), bool)
        for request in (REQUEST, REQUEST_TURN):     # tenant, ok, ...
            if self._columns[request][1]:
                ok[kind == request] = np.frombuffer(self._columns[request][1],
                                                    np.int8)
        return SpanColumns(kind, *[np.frombuffer(column, column.typecode)
                                   for column in self._heads], ok)

    def digest(self) -> str:
        """Canonical SHA-256 over every finished span: the scorecard
        witness for spans.  Every span's ``<qqqdd`` header (ids and
        bounds) hashes before any span's ``name|{attrs!r}`` text, one
        4,096-span chunk at a time.  The text is rendered here from the
        kinds' templates, each distinct row once; none outlives the
        call."""
        cols = self.columns()
        n = len(cols.kind)
        h = hashlib.sha256()
        head = np.empty(min(n, _CHUNK), _DIGEST_DTYPE)
        for lo in range(0, n, _CHUNK):
            rec = head[:min(n - lo, _CHUNK)]
            for field, column in zip(_DIGEST_DTYPE.names, cols[1:6]):
                rec[field] = column[lo:lo + _CHUNK]
            h.update(rec.tobytes())
        rows = [0] * len(KINDS)
        strings = np.array(list(self._codes), object)
        fields = [[np.frombuffer(column, np.bool_ if t is bool
                                 else column.typecode)
                   for t, column in zip(kind.stored, columns)]
                  for kind, columns in zip(KINDS, self._columns)]
        for lo in range(0, n, _CHUNK):
            kinds = cols.kind[lo:lo + _CHUNK]
            out = np.empty(len(kinds), object)
            for code, count in enumerate(np.bincount(
                    kinds, minlength=len(KINDS)).tolist()):
                if not count:
                    continue
                at = rows[code]
                rows[code] += count
                values = [(strings.take(f[at:at + count]) if t is str
                           else f[at:at + count]).tolist()
                          for t, f in zip(KINDS[code].stored, fields[code])]
                # Each distinct row of the chunk renders once.
                new = set(zip(*values) if values else [()])
                memo = dict(zip(new, map(KINDS[code].template.__mod__, new)))
                out[kinds == code] = list(map(memo.__getitem__, zip(*values)
                                              if values else [()] * count))
            text = out.tolist()
            for at in range(0, len(text), 512):     # a bounded buffer
                h.update("".join(text[at:at + 512]).encode())
        return h.hexdigest()

    def clear(self) -> None:
        """Drop every finished span (id counters keep counting)."""
        self._head: list[Any] = []
        self._young: list[list[Any]] = [[] for _ in KINDS]
        self._kind = bytearray()
        #: trace, span and parent ids, start and end
        self._heads = [array(typecode) for typecode in "qqqdd"]
        #: Per kind, one typed column per written field.
        self._columns = [[array(_TYPECODE[t]) for t in kind.stored]
                         for kind in KINDS]
        #: Intern table of the ``str`` fields: string -> code.
        self._codes: dict[str, int] = {}
