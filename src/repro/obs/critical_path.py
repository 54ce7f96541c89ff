"""Critical-path attribution over per-request span trees.

Answers the question the raw span store cannot: *where did the p99 TTFT
go?*  Each finished ``request`` trace is decomposed into the serving
phases its child spans cover —

* ``queue`` — admission wait inside the engine;
* ``prefill`` — prompt processing (both legs under disaggregation);
* ``kv_transfer`` — the disagg KV handoff over the fabric;
* ``decode`` — token generation;
* ``retry`` — failed forward attempts the router paid before failover
  succeeded (``attempt`` spans);
* ``other`` — whatever the instrumented phases do not cover (fabric
  hops, router pick, client legs): the root's duration minus the union
  of phase intervals, so double-counted overlap can never make shares
  exceed 1.

Per-request decompositions aggregate into rank-based percentile cohorts
(p50 / p50–p90 / p90–p99 / ≥p99, by TTFT and by E2E separately), the
shape critical-path analyses of production RPC fleets report: the tail
cohorts show which phase grew, not just that the tail is long.

Deterministic by construction — spans carry only simulated-time
quantities and recorder-local ids, ties rank by trace id — so
:meth:`CriticalPathReport.digest` is byte-identical across campaign
worker counts and lands in the scorecard ``cmp`` set.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .spans import SpanColumns, SpanRecorder

__all__ = ["CriticalPathAnalyzer", "CriticalPathReport", "PHASES"]

#: Instrumented phases, in pipeline order; ``other`` is derived.
PHASES = ("queue", "prefill", "kv_transfer", "decode", "retry")

#: Cohorts by rank fraction: [0, .5) -> p50, [.5, .9) -> p50_p90, etc.
_COHORTS = (("p50", 0.50), ("p50_p90", 0.90), ("p90_p99", 0.99),
            ("p99", 1.01))

#: Span name -> phase slot; an ``attempt`` span is retry time.  A
#: ``request`` span takes slot ``_ROOT`` in the analysis pass.
_SLOT = {"queue": 0, "prefill": 1, "kv_transfer": 2, "decode": 3,
         "attempt": 4}
_ROOT = 5

#: Per-request columns: e2e and its six phase values (``PHASES`` then
#: ``other``), then from ``_TTFT`` on ttft and its five phase values.
_TTFT = 7


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly-overlapping intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + (cur_end - cur_start)


def _union_lengths(group: np.ndarray, start: np.ndarray, end: np.ndarray,
                   n: int) -> np.ndarray:
    """:func:`_union_length` of each of ``n`` groups of intervals at once.

    Sorted by ``(group, start, end)``, an interval opens a new merged run
    when it starts past the running max of the ends before it in its
    group.  The running max is taken over integer keys ``group * m +
    rank``, ``rank`` being an end's position in value order (tied ends
    are equal, so any order among them picks the same value): no float
    arithmetic is added and groups cannot mix.  Run lengths then sum per
    group in sorted order, as the scalar sweep does.  Temporaries are
    freed as soon as they are spent: this sets the analysis peak.
    """
    m = len(group)
    if not m:
        return np.zeros(n)
    order = np.lexsort((end, start, group))
    group, start, end = group[order], start[order], end[order]
    del order
    by_value = np.argsort(end)
    key = np.empty(m, np.int64)
    key[by_value] = np.arange(m)
    key += group * m
    np.maximum.accumulate(key, out=key)
    key %= m
    key = by_value[key]
    del by_value
    reach = end[key]
    del key, end
    opens = np.ones(m, bool)
    opens[1:] = (group[1:] != group[:-1]) | (start[1:] > reach[:-1])
    closes = np.ones(m, bool)
    closes[:-1] = opens[1:]
    heads, tails = np.flatnonzero(opens), np.flatnonzero(closes)
    return np.bincount(group[heads], reach[tails] - start[heads], n)


class CriticalPathReport:
    """Aggregated attribution: per-cohort phase breakdowns."""

    def __init__(self, requests: int, skipped: int,
                 cohorts: dict[str, dict[str, dict[str, Any]]]):
        #: ok requests decomposed / traces skipped (errored, incomplete)
        self.requests = requests
        self.skipped = skipped
        #: ``{"ttft" | "e2e": {cohort: {n, mean_s, phase_s, share,
        #: top_phase}}}``
        self.cohorts = cohorts

    def top_phase(self, metric: str = "e2e",
                  cohort: str = "p99") -> str:
        """The dominant phase of one cohort ('' when it is empty)."""
        entry = self.cohorts.get(metric, {}).get(cohort)
        if not entry or not entry["n"]:
            return ""
        return str(entry["top_phase"])

    def to_json(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "skipped": self.skipped,
            "cohorts": self.cohorts,
            "digest": self.digest(),
        }

    def digest(self) -> str:
        """Canonical SHA-256 over the aggregated breakdowns."""
        body = {"requests": self.requests, "skipped": self.skipped,
                "cohorts": self.cohorts}
        return hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()

    def table(self, metric: str = "e2e") -> str:
        """Fixed-width text rendering for the CLI."""
        names = PHASES + ("other",)
        lines = [f"critical-path attribution by {metric} cohort "
                 f"({self.requests} requests, {self.skipped} skipped):",
                 "  " + f"{'cohort':8s} {'n':>6s} {'mean_s':>8s} "
                 + " ".join(f"{n:>11s}" for n in names)
                 + "  top"]
        for cohort in ("all",) + tuple(key for key, _ in _COHORTS):
            entry = self.cohorts.get(metric, {}).get(cohort)
            if entry is None:
                continue
            if not entry["n"]:
                lines.append(f"  {cohort:8s} {0:6d}        -")
                continue
            cells = " ".join(
                f"{entry['share'].get(name, 0.0):10.1%} "
                for name in names)
            lines.append(
                f"  {cohort:8s} {entry['n']:6d} "
                f"{entry['mean_s']:8.3f} {cells} {entry['top_phase']}")
        return "\n".join(lines)


class CriticalPathAnalyzer:
    """One-shot analysis pass over a :class:`SpanRecorder`.

    Reads the store's columns through :meth:`SpanRecorder.columns` and
    decomposes every ok ``request`` root with whole-array numpy passes
    (late children count), then ranks each metric once.  Every float
    step adds in the order a per-trace loop over close-ordered spans
    would, so the report is the loop's to the last bit.  Nothing here
    touches the hot path.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder

    def report(self) -> CriticalPathReport:
        traces, tids, columns = self._decompose(self.recorder.columns())
        cohorts: dict[str, dict[str, dict[str, Any]]] = {}
        if len(tids):
            cohorts = {"ttft": self._aggregate(columns[_TTFT:], tids,
                                               PHASES),
                       "e2e": self._aggregate(columns[:_TTFT], tids,
                                              PHASES + ("other",))}
        return CriticalPathReport(len(tids), traces - len(tids), cohorts)

    @staticmethod
    def _decompose(cols: SpanColumns) -> tuple[int, np.ndarray,
                                               list[np.ndarray]]:
        """``(traces seen, trace id per ok request, its columns)``.

        The columns are e2e, the ``PHASES`` sums and ``other``, then
        ttft and its ``PHASES`` sums; a trace without an ok, closed
        root has no row.  Per-span temporaries are deleted as soon as
        they are spent: this pass sets the run's peak heap.
        """
        ids = np.sort(cols.trace)
        traces = int(np.count_nonzero(ids[1:] != ids[:-1])) + bool(len(ids))
        del ids
        lookup = dict.fromkeys(cols.name, -1)
        lookup.update(_SLOT, request=_ROOT)
        slot = np.fromiter(map(lookup.__getitem__, cols.name), np.int8,
                           len(cols.name))
        # Root: each trace's first-closed parentless ``request`` span.
        rows = np.flatnonzero((slot == _ROOT) & (cols.parent == 0))
        tids, first = np.unique(cols.trace[rows], return_index=True)
        rows = rows[first]
        ok = (cols.ok[rows] != 0) & ~np.isnan(cols.end[rows])
        rows, tids = rows[ok], tids[ok]
        n = len(rows)
        if not n:
            return traces, tids, []
        r_start, r_end = cols.start[rows], cols.end[rows]
        del rows

        # Phase spans in close order, matched to their request by trace
        # id and clamped to its root.
        spans = np.flatnonzero((slot >= 0) & (slot < _ROOT)
                               & ~np.isnan(cols.end))
        trace = cols.trace[spans]
        req = np.minimum(np.searchsorted(tids, trace), n - 1)
        hit = tids[req] == trace            # the trace has an ok request
        spans, req = spans[hit], req[hit]
        slot, start, end = slot[spans], cols.start[spans], cols.end[spans]
        del spans, trace, hit
        bound = r_start[req]
        start = np.where(bound > start, bound, start)   # max(start, r_start)
        bound = r_end[req]
        end = np.where(bound < end, bound, end)         # min(end, r_end)
        del bound
        live = end > start
        slot, req, start, end = slot[live], req[live], start[live], end[live]
        del live
        e2e = r_end - r_start
        other = e2e - _union_lengths(req, start, end, n)
        bins = req * 5 + slot
        # bincount adds in input order: close order, as the loop did.
        phases = np.bincount(bins, end - start, n * 5).reshape(n, 5)
        ttft_end = r_start.copy()
        pre = (slot == 1) | (slot == 2)             # prefill, kv_transfer
        np.maximum.at(ttft_end, req[pre], end[pre])
        del slot, pre
        bound = ttft_end[req]
        end = np.where(bound < end, bound, end)     # min(end, ttft_end)
        del bound, req
        early = end > start
        ttft_phases = np.bincount(bins[early], end[early] - start[early],
                                  n * 5).reshape(n, 5)
        return traces, tids, [
            e2e, *phases.T, np.where(other > 0.0, other, 0.0),
            ttft_end - r_start, *ttft_phases.T]

    @staticmethod
    def _aggregate(columns: list[np.ndarray], tids: np.ndarray,
                   names: tuple[str, ...]) -> dict[str, dict[str, Any]]:
        """Rank by ``(value, trace_id)`` once; cut and sum the cohorts.

        ``columns`` is the metric's value column, then its phase columns.
        """
        order = np.lexsort((tids, columns[0]))
        ranked = [column[order] for column in columns]
        n = len(order)
        rank_frac = np.arange(1, n + 1) / n
        out = {"all": CriticalPathAnalyzer._cohort(ranked, names, 0, n)}
        lo = 0
        for name, ceiling in _COHORTS:
            hi = n if name == "p99" else max(
                lo, int(np.searchsorted(rank_frac, ceiling, "right")))
            out[name] = CriticalPathAnalyzer._cohort(ranked, names, lo, hi)
            lo = hi
        return out

    @staticmethod
    def _cohort(ranked: list[np.ndarray], names: tuple[str, ...],
                lo: int, hi: int) -> dict[str, Any]:
        """Sum one cohort's columns over ranks ``[lo, hi)`` in order."""
        n = hi - lo
        if not n:
            return {"n": 0, "mean_s": 0.0, "phase_s": {}, "share": {},
                    "top_phase": ""}
        # cumsum adds left to right in rank order, as a ``+=`` loop does
        # (``np.sum`` is pairwise); ``0.0 +`` is the loop's initial value.
        total, *sums = [0.0 + float(np.cumsum(column[lo:hi])[-1])
                        for column in ranked]
        phase_sums = dict(zip(names, sums, strict=True))
        if "other" not in phase_sums:
            # TTFT: ``other`` is what the phases leave of the total.
            covered = sum(phase_sums[name] for name in PHASES)
            phase_sums["other"] = max(0.0, total - covered)
        top = max(phase_sums, key=lambda name: (phase_sums[name], name))
        return {
            "n": n,
            "mean_s": round(total / n, 6),
            "phase_s": {name: round(value / n, 6)
                        for name, value in phase_sums.items()},
            "share": {name: (round(value / total, 6) if total > 0 else 0.0)
                      for name, value in phase_sums.items()},
            "top_phase": top,
        }
