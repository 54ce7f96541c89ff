"""Span-writing helpers shared by the span and attribution tests."""

from __future__ import annotations

from repro.obs.spans import (ATTEMPT, DECODE, KV_TRANSFER, PREFILL, QUEUE,
                             REQUEST, ROUTE, SESSION)

#: span name -> a declared kind of that name and field values for it
SAMPLE = {
    "queue": (QUEUE,),
    "prefill": (PREFILL, "e0", 8, 0),
    "kv_transfer": (KV_TRANSFER, "h0", "h1", 4096, 8, "e0"),
    "decode": (DECODE, 4, 0),
    "attempt": (ATTEMPT, "b0", "error"),
    "route": (ROUTE, "b0", 1),
    "session": (SESSION, "s1", "t", 1, "finished", 12),
}


def emit_named(rec, name, trace_id, span_id, parent_id, start, end):
    """Write one span called ``name`` with its sample field values."""
    kind, *values = SAMPLE[name]
    rec.emit(kind, trace_id, span_id, parent_id, start, end, *values)


def emit_request(rec, trace_id, span_id, start, end, ok=True):
    """Write one parentless ``request`` span."""
    rec.emit(REQUEST, trace_id, span_id, 0, start, end, "t", ok, 4)
