"""Structured event tracing for simulations.

Components emit trace records (``tracer.emit("vllm.step", engine="hops15",
batch=32)``); the tracer folds them into the run's golden-trace digest
as they arrive.  Tests that filter records to assert on behaviour opt
into keeping them (``tracer.retain = True``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import starmap
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


#: One record's digest line, without the newline: ``[time, kind, fields]``.
_encode = json.JSONEncoder(sort_keys=True, default=_jsonable).encode
#: Records that wait in the young list before they are hashed.
_FOLD = 512

_Rows = list[tuple[float, str, dict[str, Any]]]


class Tracer:
    """Streams every record a run emits into a SHA-256, in emit order.

    A record is one JSON line, ``[time, kind, fields]``.  Records wait
    in a young list of at most ``_FOLD``; then, and before any read,
    their lines feed the running hash and the hash of the current
    ``_CHUNK``-record chunk (:attr:`chunks`, 32 bytes per chunk, so a
    digest mismatch can name its chunk).  Memory stays bounded at any
    horizon: the tracer keeps no record unless :attr:`retain` was set
    before the first emit (:attr:`records`, :meth:`of_kind`).

    Emitters must not change a ``fields`` value after ``emit``: the
    line renders up to ``_FOLD`` records later.
    """

    #: Records per chunk hash.
    _CHUNK = 4096

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel
        #: Keep every record for :attr:`records` / :meth:`of_kind`.
        self.retain = False
        self.clear()

    def emit(self, kind: str, **fields: Any) -> None:
        young = self._young
        young.append((self.kernel.now, kind, fields))
        if len(young) >= _FOLD:
            self._fold()

    def _fold(self) -> None:
        """Hash the young records and drop them (or keep, if retaining)."""
        young = self._young
        done = 0
        while done < len(young):
            take = min(len(young) - done, self._CHUNK - self._in_chunk)
            data = self._render(young[done:done + take])
            self._hash.update(data)
            self._chunk.update(data)
            self._in_chunk += take
            done += take
            if self._in_chunk == self._CHUNK:
                self.chunks.append(self._chunk.digest())
                self._chunk = hashlib.sha256()
                self._in_chunk = 0
        if self.retain:
            self._kept += starmap(TraceRecord, young)
        self._folded += len(young)
        young.clear()

    def _render(self, rows: _Rows) -> bytes:
        return ("\n".join(map(_encode, rows)) + "\n").encode()

    def digest(self) -> str:
        """Canonical SHA-256 over every record (time, kind, fields).

        Two simulations that interleaved events identically produce the
        same digest — in one process or across a worker pool — which
        makes this the golden-trace witness for determinism tests and
        campaign scorecards.  Read-only: the running hash is copied, so
        digesting twice, or emitting afterwards, still works.
        """
        h = self._hash.copy()
        if self._young:
            h.update(self._render(self._young))
        return h.hexdigest()

    @property
    def records(self) -> list[TraceRecord]:
        """Every record so far, in emit order; needs :attr:`retain`."""
        if not self.retain:
            raise RuntimeError("trace records are not kept: set "
                               "Tracer.retain before the first emit")
        self._fold()
        if len(self._kept) != self._folded:
            raise RuntimeError("Tracer.retain was set after records were "
                               "dropped: set it before the first emit")
        return self._kept

    def of_kind(self, kind: str) -> list[TraceRecord]:
        return [r for r in self.records if r.kind == kind]

    def clear(self) -> None:
        """Forget every record and restart the digest."""
        self._young: _Rows = []
        self._kept: list[TraceRecord] = []
        self._folded = 0
        self._hash = hashlib.sha256()
        self._chunk = hashlib.sha256()
        self._in_chunk = 0
        #: SHA-256 of each full ``_CHUNK``-record chunk, in order.
        self.chunks: list[bytes] = []
