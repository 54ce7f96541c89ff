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
from array import array
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from .spans import SpanRecorder

__all__ = ["CriticalPathAnalyzer", "CriticalPathReport", "PHASES"]

#: Instrumented phases, in pipeline order; ``other`` is derived.
PHASES = ("queue", "prefill", "kv_transfer", "decode", "retry")

#: Cohorts by rank fraction: [0, .5) -> p50, [.5, .9) -> p50_p90, etc.
_COHORTS = (("p50", 0.50), ("p50_p90", 0.90), ("p90_p99", 0.99),
            ("p99", 1.01))

#: Span name -> phase slot; an ``attempt`` span is retry time.
_SLOT = {"queue": 0, "prefill": 1, "kv_transfer": 2, "decode": 3,
         "attempt": 4}

#: One flat row of columns per request: e2e, its six phase values
#: (``PHASES`` then ``other``), then ttft and its five phase values.
_WIDTH, _TTFT = 13, 7


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

    Reads the close-ordered rows through :meth:`SpanRecorder.chunks`;
    groups them by trace id (late children count); decomposes every ok
    ``request`` root into one flat row of columns; and ranks each metric
    once.  Nothing here touches the hot path.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder

    def report(self) -> CriticalPathReport:
        by_trace: dict[int, list[tuple]] = {}
        for rows in self.recorder.chunks():
            for row in rows:
                by_trace.setdefault(row[1], []).append(row)
        tids: list[int] = []
        flat = array("d")
        for tid, spans in by_trace.items():
            row = self._decompose(spans)
            if row is not None:
                tids.append(tid)
                flat.extend(row)
        skipped = len(by_trace) - len(tids)
        del by_trace
        cohorts: dict[str, dict[str, dict[str, Any]]] = {}
        if tids:
            cohorts = {"ttft": self._aggregate(flat, tids, _TTFT, PHASES),
                       "e2e": self._aggregate(flat, tids, 0,
                                              PHASES + ("other",))}
        return CriticalPathReport(len(tids), skipped, cohorts)

    @staticmethod
    def _decompose(spans: list[tuple]) -> list[float] | None:
        """One trace's row, or None when it has no ok, closed root."""
        root = next((s for s in spans
                     if s[0] == "request" and not s[3]), None)
        if (root is None or root[5] is None
                or not bool(root[6].get("ok", True))):
            return None
        r_start, r_end = root[4], root[5]
        phases = [0.0] * 5
        slots: list[int] = []
        covered: list[tuple[float, float]] = []
        ttft_end = r_start
        for name, _t, _s, _p, start, end, _a in spans:
            slot = _SLOT.get(name)
            if slot is None or end is None:
                continue
            start = max(start, r_start)
            end = min(end, r_end)
            if end <= start:
                continue
            phases[slot] += end - start
            slots.append(slot)
            covered.append((start, end))
            if slot in (1, 2) and end > ttft_end:
                ttft_end = end
        ttft_phases = [0.0] * 5
        for slot, (start, end) in zip(slots, covered, strict=True):
            end = min(end, ttft_end)
            if end > start:
                ttft_phases[slot] += end - start
        e2e = r_end - r_start
        other = max(0.0, e2e - _union_length(covered))
        return [e2e, *phases, other, ttft_end - r_start, *ttft_phases]

    @staticmethod
    def _aggregate(flat: array, tids: list[int], first: int,
                   names: tuple[str, ...]) -> dict[str, dict[str, Any]]:
        """Rank by ``(value, trace_id)`` once; cut and sum the cohorts.

        ``first`` is the metric's value column; its phase columns follow.
        """
        columns = [flat[first + k::_WIDTH] for k in range(len(names) + 1)]
        order = [i for _v, _t, i in sorted(zip(columns[0], tids,
                                                range(len(tids)), strict=True))]
        n = len(order)
        out = {"all": CriticalPathAnalyzer._cohort(columns, names, order)}
        lo = 0
        for name, ceiling in _COHORTS:
            hi = lo
            while hi < n and ((hi + 1) / n <= ceiling or name == "p99"):
                hi += 1
            out[name] = CriticalPathAnalyzer._cohort(columns, names,
                                                     order[lo:hi])
            lo = hi
        return out

    @staticmethod
    def _cohort(columns: list[array], names: tuple[str, ...],
                members: list[int]) -> dict[str, Any]:
        """Sum one cohort's columns over its members in rank order."""
        n = len(members)
        if not n:
            return {"n": 0, "mean_s": 0.0, "phase_s": {}, "share": {},
                    "top_phase": ""}
        # Sums add left to right in rank order, as a ``+=`` loop does
        # (builtin ``sum`` compensates floats on Python 3.12+).
        total, *sums = [reduce(add, map(column.__getitem__, members), 0.0)
                        for column in columns]
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
