"""Structured event tracing for simulations.

Components emit trace records (``tracer.emit("vllm.step", engine="hops15",
batch=32)``); tests and benches filter them to assert on behaviour without
coupling to internals.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
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
    """Collects every :class:`TraceRecord` a run emits, in emit order.

    Retention is unbounded: the digest and golden-trace paths need
    every record.
    """

    #: Records hashed per chunk in :meth:`digest`.
    _CHUNK = 4096

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel
        self.records: list[TraceRecord] = []

    def emit(self, kind: str, **fields: Any) -> None:
        self.records.append(TraceRecord(self.kernel.now, kind, fields))

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

    def clear(self) -> None:
        self.records.clear()
