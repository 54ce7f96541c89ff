"""A simulated scrape pipeline over the metrics registry.

:class:`MetricsScraper` plays the role Prometheus plays in a real
fleet: every ``interval`` simulated seconds it snapshots the registry
into an append-only time-series.  It owns no clock: the fleet's
telemetry loop (``Fleet._telemetry``) calls :meth:`scrape_once` on its
live ticks and :meth:`scrape_idle` on the ticks quiet-play skips, and a
test can call :meth:`scrape_once` at chosen instants.  Because the clock
is virtual and collection order is deterministic, the resulting series
— and its :meth:`digest` — are byte-identical across campaign worker
counts, which is what lets the scorecard job ``cmp`` the whole
observability surface w4-vs-w1.

The scrape stores *deltas by default*: each sample records only the
series whose value changed since the previous scrape (plus every series
on the first scrape), so a 90-day soak with thousands of mostly-idle
series stays small without losing any information — the full state at
any scrape is the fold of all deltas up to it.

Readers get two point-in-time views back without re-folding by hand:
:meth:`MetricsScraper.value_at` answers "what did this series read at
simulated time ``t``" via a per-series change index maintained as
scrapes land (one bisect per query), and :meth:`MetricsScraper.fold`
reconstructs the whole registry state as of a time.  The alert
evaluator (:mod:`repro.obs.alerts`) is built entirely on these reads.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from typing import TYPE_CHECKING, Any, overload

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel.kernel import SimKernel
    from .metrics import MetricsRegistry

__all__ = ["MetricsScraper", "ScrapeSample"]


class ScrapeSample:
    """One scrape: a timestamp plus the changed series."""

    __slots__ = ("time", "values")

    def __init__(self, time: float, values: dict[str, float]):
        self.time = time
        self.values = values

    def to_dict(self) -> dict[str, Any]:
        return {"time": self.time, "values": self.values}


class MetricsScraper:
    """Registry snapshots on the simulated clock, stored as deltas.

    ``interval`` is the cadence its driver keeps; the fleet's telemetry
    loop scrapes at it when observability is on.
    """

    def __init__(self, kernel: SimKernel, registry: MetricsRegistry,
                 interval: float = 60.0):
        if interval <= 0:
            raise ValueError("scrape interval must be positive")
        self.kernel = kernel
        self.registry = registry
        self.interval = interval
        self.samples: list[ScrapeSample] = []
        self._last: dict[str, float] = {}
        # Per-series change index: key -> (change times, values), both
        # append-only and time-sorted because scrapes only move forward.
        # value_at() is one dict hit plus one bisect against this.
        self._points: dict[str, tuple[list[float], list[float]]] = {}

    # -- scraping -----------------------------------------------------------------

    def scrape_once(self) -> ScrapeSample:
        """Snapshot now; record only series that changed since last time."""
        current = self.registry.sample_dict()
        changed = {k: v for k, v in current.items()
                   if self._last.get(k) != v}
        self._last = current
        now = self.kernel.now
        sample = ScrapeSample(now, changed)
        self.samples.append(sample)
        points = self._points
        for key, value in changed.items():
            entry = points.get(key)
            if entry is None:
                points[key] = ([now], [value])
            else:
                entry[0].append(now)
                entry[1].append(value)
        return sample

    def scrape_idle(self, t: float) -> None:
        """Record a scrape at ``t`` at which no series moved.

        The empty delta a :meth:`scrape_once` at ``t`` would store, for
        a driver that knows the registry has not changed since the last
        live scrape; the change index is untouched, so :meth:`value_at`
        and :meth:`last_change` read exactly as if it had scraped.
        """
        self.samples.append(ScrapeSample(t, {}))

    # -- queries ------------------------------------------------------------------

    def series(self, key: str) -> list[tuple[float, float]]:
        """Reconstruct one series as (time, value) points at its changes."""
        entry = self._points.get(key)
        if entry is None:
            return []
        return list(zip(entry[0], entry[1], strict=True))

    @overload
    def value_at(self, key: str, t: float) -> float | None: ...

    @overload
    def value_at(self, key: str, t: float, default: float) -> float: ...

    def value_at(self, key: str, t: float,
                 default: float | None = None) -> float | None:
        """The value series ``key`` read at simulated time ``t``.

        A delta-encoded series holds its value between changes, so this
        is the last recorded change at or before ``t`` — exactly what a
        dashboard (or the alert evaluator) would have seen had it looked
        at that instant.  ``default`` answers for a series that had not
        yet appeared (or never existed) by time ``t``.
        """
        entry = self._points.get(key)
        if entry is None:
            return default
        idx = bisect_right(entry[0], t)
        if idx == 0:
            return default
        return entry[1][idx - 1]

    def last_change(self, key: str, t: float) -> float | None:
        """When series ``key`` last *changed* at or before ``t``.

        ``None`` when it had not yet appeared — the absence-rule primitive
        ("no ok-completions recorded for N seconds").
        """
        entry = self._points.get(key)
        if entry is None:
            return None
        idx = bisect_right(entry[0], t)
        if idx == 0:
            return None
        return entry[0][idx - 1]

    def fold(self, at: float | None = None) -> dict[str, float]:
        """Full registry state as of time ``at`` (fold of all deltas).

        ``None`` folds everything — the state pinned by the latest
        scrape.  The brute-force counterpart of :meth:`value_at`;
        property tests hold the two views equal on random series.
        """
        state: dict[str, float] = {}
        for sample in self.samples:
            if at is not None and sample.time > at:
                break
            state.update(sample.values)
        return state

    def to_dict(self) -> dict[str, Any]:
        return {
            "interval": self.interval,
            "scrapes": len(self.samples),
            "samples": [s.to_dict() for s in self.samples],
        }

    def digest(self) -> str:
        """Canonical SHA-256 over the whole time-series."""
        h = hashlib.sha256()
        for sample in self.samples:
            h.update(json.dumps([sample.time, sample.values],
                                sort_keys=True).encode())
            h.update(b"\n")
        return h.hexdigest()
