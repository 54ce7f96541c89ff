"""Streaming quantile estimation for the serving hot path.

Every per-request metrics consumer in the stack — the
:class:`~repro.fleet.slo.SloTracker` snapshot percentiles, the
``slo_met`` attainment gate, the whole-run report, and every
:class:`~repro.obs.metrics.Histogram` in the observability registry —
routes through one estimator: a fixed-bucket log-scale histogram.  One
implementation means one percentile *definition*, killing the class of
bugs where a snapshot reports ``ttft_p99 <= target`` while the gate
(computed through a different interpolation) disagrees.

(The estimator lives in ``repro.obs`` — the one package under every
layer of the stack.)

Why a log histogram and not P²/t-digest: the SLO tracker is *windowed* —
records age out of the rolling window, so the estimator must support
deletion.  Markov-chain estimators (P², moment sketches) are
insert-only; a bucket histogram decrements a counter and is exact about
membership.  Accuracy is a fixed relative error set by the bucket growth
factor (see :meth:`LogHistogram.rel_error_bound`), with O(1)
``add``/``remove`` and O(buckets) quantile queries paid only at
snapshot time — never per request.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError

__all__ = ["LogHistogram", "QUANTILE_KEYS"]

#: The percentile keys every report/snapshot exposes.
QUANTILE_KEYS = (50.0, 95.0, 99.0)


class LogHistogram:
    """Fixed-bucket log-scale histogram with streaming add/remove.

    Buckets cover ``[min_value, max_value)`` at geometric spacing
    ``growth``; bucket ``0`` is the underflow bin (values below the
    resolution floor, reported as ``0.0`` — a window of all-zero TTFTs
    must report zero, not the floor) and the last bucket is the overflow
    bin (reported as ``max_value``).  Quantiles are nearest-rank over
    the bucket counts; the representative value is the geometric
    midpoint of the bucket, so any quantile is within
    :meth:`rel_error_bound` of the exact nearest-rank sample.
    """

    __slots__ = ("min_value", "max_value", "growth", "_counts", "_total",
                 "_inv_log_growth", "_buckets")

    def __init__(self, min_value: float = 1e-3, max_value: float = 1e5,
                 growth: float = 1.02) -> None:
        if not (0 < min_value < max_value):
            raise ConfigurationError("need 0 < min_value < max_value")
        if growth <= 1.0:
            raise ConfigurationError("growth factor must be > 1")
        self.min_value = min_value
        self.max_value = max_value
        self.growth = growth
        self._inv_log_growth = 1.0 / math.log(growth)
        # Bucket i in [1, buckets] covers [min * g^(i-1), min * g^i).
        self._buckets = int(math.ceil(
            math.log(max_value / min_value) * self._inv_log_growth))
        # counts[0] = underflow, counts[buckets + 1] = overflow.
        self._counts = [0] * (self._buckets + 2)
        self._total = 0

    # -- indexing -----------------------------------------------------------------

    def _index(self, value: float) -> int:
        if value < self.min_value:
            return 0
        if value >= self.max_value:
            return self._buckets + 1
        idx = int(math.log(value / self.min_value) * self._inv_log_growth) + 1
        # FP guard: values sitting exactly on an edge can round either
        # way in the log; clamp into the valid range.
        if idx < 1:
            return 1
        return min(idx, self._buckets)

    def _representative(self, idx: int) -> float:
        if idx == 0:
            return 0.0
        if idx > self._buckets:
            return self.max_value
        return self.min_value * self.growth ** (idx - 0.5)

    # -- streaming updates --------------------------------------------------------

    def add(self, value: float) -> None:
        self._counts[self._index(value)] += 1
        self._total += 1

    def remove(self, value: float) -> None:
        """Remove a previously-added value (same bucket mapping as add)."""
        idx = self._index(value)
        if self._counts[idx] <= 0:
            raise ConfigurationError(
                f"remove() without matching add() (bucket {idx})")
        self._counts[idx] -= 1
        self._total -= 1

    def __len__(self) -> int:
        return self._total

    # -- queries ------------------------------------------------------------------

    def rel_error_bound(self) -> float:
        """Worst-case relative error of any in-range quantile.

        Geometry gives ``sqrt(growth) - 1`` (representative is the
        bucket's geometric midpoint); the extra factor of ``growth``
        absorbs values sitting within an ulp of a bucket edge, which the
        float log can place one bucket either way.
        """
        return self.growth ** 1.5 - 1.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile ``q`` in (0, 100]; 0.0 when empty."""
        if self._total == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self._total))
        seen = 0
        for idx, count in enumerate(self._counts):
            seen += count
            if seen >= rank:
                return self._representative(idx)
        return self.max_value  # pragma: no cover - rank <= total always hits

    def quantiles(self, qs: tuple[float, ...] = QUANTILE_KEYS) -> list[float]:
        """Several quantiles in one pass over the buckets (any order).

        Returns one value per ``q``, all 0.0 when empty.
        """
        if self._total == 0:
            return [0.0] * len(qs)
        ranks = [max(1, math.ceil(q / 100.0 * self._total)) for q in qs]
        order = sorted(range(len(qs)), key=ranks.__getitem__)
        out = [0.0] * len(qs)
        seen = 0
        pos = 0
        for idx, count in enumerate(self._counts):
            seen += count
            while pos < len(order) and seen >= ranks[order[pos]]:
                out[order[pos]] = self._representative(idx)
                pos += 1
            if pos == len(order):
                break
        return out

    def percentile_dict(self) -> dict[str, float]:
        """The standard ``{"p50": ..., "p95": ..., "p99": ...}`` triple."""
        p50, p95, p99 = self.quantiles(QUANTILE_KEYS)
        return {"p50": p50, "p95": p95, "p99": p99}
