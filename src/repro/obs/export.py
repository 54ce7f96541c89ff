"""Chrome-trace / Perfetto JSON export for spans and layer profiles.

Both ``chrome://tracing`` and https://ui.perfetto.dev consume the Trace
Event Format: a JSON object with a ``traceEvents`` list of events whose
timestamps are **microseconds**.  We emit complete events (``"ph": "X"``
with ``ts`` + ``dur``) exclusively — they need no begin/end pairing and
every span and profile row already knows its bounds when it closes.

Mapping:

* **Spans** (simulated seconds) → one process ``pid=1``, one thread per
  *trace* (``tid`` = trace id), so each request renders as its own row
  with route/queue/prefill/decode nested by time.  Simulated seconds
  are scaled by 1e6 — one trace-viewer microsecond per simulated
  microsecond.
* **Profile rows** (wall seconds) → process ``pid=2``, one track per
  path depth: layers on ``tid=1``, their functions on ``tid=2`` under
  them.  Each ``layer`` or ``layer;module:function`` path becomes one
  summary event with its total time and call count.

The export is plain data; write it with ``json.dump`` (the CLI does)
and load it in either viewer unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from .profile import Profiler
    from .spans import Span, SpanRecorder

__all__ = ["chrome_trace", "span_events", "profile_events"]

#: Simulated seconds → trace-viewer microseconds.
_SIM_TO_US = 1e6


def span_events(spans: Iterable["Span"]) -> list[dict[str, Any]]:
    """Complete ("X") events for finished spans, one thread per trace."""
    events: list[dict[str, Any]] = []
    tids: set[int] = set()
    for span in spans:
        tids.add(span.trace_id)
        events.append({
            "name": span.name,
            "ph": "X",
            "pid": 1,
            "tid": span.trace_id,
            "ts": span.start * _SIM_TO_US,
            "dur": max(0.0, span.duration) * _SIM_TO_US,
            "args": dict(span.attrs),
        })
    for tid in sorted(tids):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": f"trace {tid}"},
        })
    return events


def profile_events(prof: Profiler) -> list[dict[str, Any]]:
    """Summary events for profile paths (wall-clock totals).

    A path's time is summed over the whole run, so each path is drawn
    once at an offset encoding its depth — a flame-*chart* of totals
    rather than a timeline.
    """
    events: list[dict[str, Any]] = []
    cursor_by_parent: dict[str, float] = {}
    for path in sorted(prof.totals):
        parent = path.rsplit(";", 1)[0] if ";" in path else ""
        start = cursor_by_parent.get(parent, 0.0)
        dur_us = prof.totals[path] * 1e6
        events.append({
            "name": path.rsplit(";", 1)[-1],
            "ph": "X",
            "pid": 2,
            "tid": path.count(";") + 1,
            "ts": start,
            "dur": dur_us,
            "args": {"path": path, "calls": prof.counts.get(path, 0)},
        })
        # Children of this path start where it starts; siblings after it.
        cursor_by_parent.setdefault(path, start)
        cursor_by_parent[parent] = start + dur_us
    if events:
        events.append({
            "name": "process_name", "ph": "M", "pid": 2, "tid": 0,
            "args": {"name": "self-profile (wall clock)"},
        })
    return events


def chrome_trace(recorder: SpanRecorder | None = None,
                 prof: Profiler | None = None) -> dict[str, Any]:
    """A complete Trace Event Format document for either/both sources."""
    events: list[dict[str, Any]] = []
    if recorder is not None:
        events.extend(span_events(recorder.finished))
        events.append({
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": "request spans (simulated time)"},
        })
    if prof is not None and prof.totals:
        events.extend(profile_events(prof))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro obs"},
    }
