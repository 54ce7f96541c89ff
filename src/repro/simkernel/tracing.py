"""Structured event tracing for simulations.

Components emit trace records (``tracer.emit("vllm.step", engine="hops15",
batch=32)``); tests and benches filter them to assert on behaviour without
coupling to internals.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator, MutableSequence
from itertools import islice
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import SimKernel


@dataclass(frozen=True)
class TraceRecord:
    """One trace event at a simulated time."""

    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def __getattr__(self, item: str) -> Any:
        try:
            return self.fields[item]
        except KeyError as exc:  # pragma: no cover - debug aid
            raise AttributeError(item) from exc


def _jsonable(obj: Any) -> Any:
    """Digest fallback for non-JSON field values (numpy scalars, enums)."""
    if hasattr(obj, "item"):            # numpy integer / bool scalars
        return obj.item()
    return repr(obj)


class Tracer:
    """Collects :class:`TraceRecord` objects; optionally filtered.

    Tracing is enabled by default but can be limited with
    :meth:`set_filter` to keep long benches light.  Subscribers can react
    to records as they are emitted (used by live monitors in examples);
    a raising subscriber is counted and skipped, never allowed to abort
    the emitting component.

    Retention is unbounded by default — digest and golden-trace paths
    need every record — but long soaks cap it with :meth:`set_capacity`,
    which turns the store into a ring buffer of the most recent records
    (:attr:`dropped` counts the evictions).
    """

    #: Records hashed per chunk in :meth:`digest`.
    _CHUNK = 4096

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel
        self.records: MutableSequence[TraceRecord] = []
        self.enabled = True
        self.dropped = 0
        self.subscriber_errors = 0
        self._capacity: int | None = None
        self._filter: Callable[[str], bool] | None = None
        self._subscribers: list[Callable[[TraceRecord], None]] = []

    def emit(self, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        if self._filter is not None and not self._filter(kind):
            return
        rec = TraceRecord(self.kernel.now, kind, fields)
        if (self._capacity is not None
                and len(self.records) >= self._capacity):
            self.dropped += 1
        self.records.append(rec)
        for sub in self._subscribers:
            try:
                sub(rec)
            except Exception:
                # A broken live monitor must not kill the simulation.
                self.subscriber_errors += 1

    def set_capacity(self, capacity: int | None) -> None:
        """Cap retention to the most recent ``capacity`` records.

        ``None`` restores unbounded retention (the default, required by
        any path that digests the full run).  Existing records are kept
        up to the new cap, newest-last.
        """
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._capacity = capacity
        if capacity is None:
            self.records = list(self.records)
        else:
            if len(self.records) > capacity:
                self.dropped += len(self.records) - capacity
            self.records = deque(self.records, maxlen=capacity)

    @property
    def capacity(self) -> int | None:
        return self._capacity

    def set_filter(self, predicate: Callable[[str], bool] | None) -> None:
        self._filter = predicate

    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        self._subscribers.append(callback)

    def digest(self) -> str:
        """Canonical SHA-256 over every record (time, kind, fields).

        Two simulations that interleaved events identically produce the
        same digest — in one process or across a worker pool — which
        makes this the golden-trace witness for determinism tests and
        campaign scorecards.  Records hash in chunks.
        """
        h = hashlib.sha256()
        encode = json.JSONEncoder(sort_keys=True, default=_jsonable).encode
        records = iter(self.records)
        while chunk := list(islice(records, self._CHUNK)):
            h.update("".join([encode([r.time, r.kind, r.fields]) + "\n"
                              for r in chunk]).encode())
        return h.hexdigest()

    def of_kind(self, kind: str) -> list[TraceRecord]:
        return [r for r in self.records if r.kind == kind]

    def matching(self, prefix: str) -> Iterator[TraceRecord]:
        return (r for r in self.records if r.kind.startswith(prefix))

    def clear(self) -> None:
        self.records.clear()
