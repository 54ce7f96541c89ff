"""Per-kernel observability context.

Every :class:`~repro.simkernel.SimKernel` owns one
:class:`Observability` (``kernel.obs``): the metrics registry and span
recorder for everything running on that kernel.  Components reach their
instruments through the kernel they already hold (``env.obs.registry``),
so a campaign running forty cells in one process keeps forty fully
independent observability surfaces — no globals, no cross-cell bleed.

The registry and the span recorder are live from the start, and
:meth:`Observability.disable` is the one switch that turns both off
(the dark arm of overhead benches and ``play(observability=False)``).
The per-layer profiler is not part of it: it wraps cProfile, which
hooks the whole interpreter, and no kernel component reads it — see
:mod:`repro.obs.profile`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .metrics import MetricsRegistry
from .spans import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel.kernel import SimKernel

__all__ = ["Observability"]


class Observability:
    """The observability surface of one simulation kernel."""

    __slots__ = ("kernel", "registry", "spans")

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder(kernel)

    def disable(self) -> None:
        """Turn off all optional collection (bench disabled-baseline)."""
        self.spans.enabled = False
        self.registry.enabled = False

    def digests(self) -> dict[str, str]:
        """The deterministic witnesses merged into scorecards."""
        return {
            "metrics": _text_digest(self.registry.exposition()),
            "spans": self.spans.digest(),
        }

    def summary(self) -> dict[str, Any]:
        return {
            "metric_series": len(self.registry.sample_dict()),
            "finished_spans": self.spans.span_count,
            "digests": self.digests(),
        }


def _text_digest(text: str) -> str:
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()
