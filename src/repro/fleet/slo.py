"""SLO specs and online rolling-window service metrics.

A :class:`SloSpec` states per-request objectives (TTFT and end-to-end
latency deadlines, an error budget) and the percentile at which the fleet
must meet them.  The :class:`SloTracker` consumes one
:class:`RequestRecord` per completed (or failed) request and answers two
questions online:

* :meth:`SloTracker.snapshot` — how is the last ``window`` seconds doing?
  (the autoscaler's and operator dashboards' view);
* :meth:`SloTracker.report` — how did the whole run do, per tenant?
  (the scenario's scorecard).

*Goodput* follows the serving-systems convention: completions that met
every per-request objective, per second — throughput that violates the
SLO does not count.

The tracker is *streaming*: window aggregates (good/ok/error counts,
token sums) update O(1) on :meth:`SloTracker.observe` and trim, and
every quantile — the reported p50/p95/p99 **and** the ``slo_met``
attainment gate — comes from one shared
:class:`~repro.obs.stats.LogHistogram` estimator, so
:meth:`SloTracker.snapshot` never materializes or sorts the window and
its cost is independent of how many requests were ever observed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..obs.stats import LogHistogram

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel


@dataclass(frozen=True)
class SloSpec:
    """Per-request objectives plus the attainment percentile."""

    name: str = "interactive"
    ttft_target: float = 5.0        # seconds to first token
    e2e_target: float = 60.0        # seconds to completion
    max_error_rate: float = 0.01    # fraction of requests
    percentile: float = 95.0        # attainment percentile for slo_met
    window: float = 300.0           # rolling-window width, seconds

    def __post_init__(self):
        if self.ttft_target <= 0 or self.e2e_target <= 0:
            raise ConfigurationError("SLO targets must be positive")
        if not (0 < self.percentile < 100):
            raise ConfigurationError("percentile must be in (0, 100)")
        if self.window <= 0:
            raise ConfigurationError("window must be positive")


@dataclass(frozen=True)
class RequestRecord:
    """One finished request as observed by the client.

    ``turn`` is 0 for single-shot traffic and 1-based for session
    turns; ``cached_tokens`` is how much of the prompt the serving
    engine prefilled from its prefix cache (0 when caching is off or
    the request missed).  ``path`` is the serving path the request
    took — ``"unified"`` for a single-engine completion, ``"disagg"``
    when the router split it into prefill and decode legs — and
    ``kv_transfer_s`` the fabric seconds its KV handoff cost (0 on the
    unified path).
    """

    tenant: str
    submitted: float
    completed: float
    ttft: float
    latency: float
    prompt_tokens: int = 0
    output_tokens: int = 0
    ok: bool = True
    error: str = ""
    session: str = ""
    turn: int = 0
    cached_tokens: int = 0
    path: str = "unified"
    kv_transfer_s: float = 0.0


@dataclass
class SloSnapshot:
    """Rolling-window view at one instant.

    A window with zero finished requests is *vacuously healthy*: there
    is nothing to violate, so ``attainment`` is 1.0, ``slo_met`` is
    true, every rate is 0.0, and every percentile is 0.0 — never NaN or
    ``None``, so snapshots always serialize cleanly and autoscaler /
    chaos-probe consumers need no special casing.  ``samples`` carries
    the window population so those consumers can still distinguish
    "healthy" from "idle".
    """

    time: float
    window: float
    samples: int = 0                # finished requests in the window
    completions: int = 0
    errors: int = 0
    error_rate: float = 0.0
    throughput_rps: float = 0.0
    goodput_rps: float = 0.0
    output_tok_per_s: float = 0.0
    attainment: float = 1.0         # fraction of finished requests "good"
    ttft_p50: float = 0.0
    ttft_p95: float = 0.0
    ttft_p99: float = 0.0
    e2e_p50: float = 0.0
    e2e_p95: float = 0.0
    e2e_p99: float = 0.0
    slo_met: bool = True
    session_samples: int = 0        # finished session turns in the window
    cache_hit_rate: float = 0.0     # fraction of them with a prefix hit

    def row(self) -> dict:
        return {
            "t": round(self.time, 1),
            "samples": self.samples,
            "completions": self.completions,
            "errors": self.errors,
            "error_rate": round(self.error_rate, 4),
            "throughput_rps": round(self.throughput_rps, 3),
            "goodput_rps": round(self.goodput_rps, 3),
            "output_tok_per_s": round(self.output_tok_per_s, 1),
            "attainment": round(self.attainment, 4),
            "ttft_p95_s": round(self.ttft_p95, 3),
            "e2e_p95_s": round(self.e2e_p95, 3),
            "slo_met": self.slo_met,
            **({"session_samples": self.session_samples,
                "cache_hit_rate": round(self.cache_hit_rate, 4)}
               if self.session_samples else {}),
        }


@dataclass
class TenantStats:
    completed: int = 0
    errors: int = 0
    good: int = 0
    output_tokens: int = 0

    @property
    def attainment(self) -> float:
        total = self.completed + self.errors
        return self.good / total if total else 1.0


@dataclass
class SloReport:
    """Whole-run scorecard.

    ``turns`` and ``cache`` are populated only when the run carried
    session traffic: per-turn TTFT splits (the first turn pays a full
    prefill; later turns should ride the prefix cache) and prefix-cache
    effectiveness as observed by clients.  ``paths`` is populated only
    when the run saw a non-unified serving path (disaggregated
    prefill/decode): per-path TTFT aggregates plus the total KV
    transfer seconds the disagg handoffs cost.
    """

    spec: SloSpec
    duration: float
    submitted: int
    completed: int
    errors: int
    good: int
    output_tokens: int
    ttft_percentiles: dict[str, float]
    e2e_percentiles: dict[str, float]
    per_tenant: dict[str, TenantStats] = field(default_factory=dict)
    turns: dict | None = None
    cache: dict | None = None
    paths: dict | None = None

    @property
    def attainment(self) -> float:
        total = self.completed + self.errors
        return self.good / total if total else 1.0

    @property
    def error_rate(self) -> float:
        total = self.completed + self.errors
        return self.errors / total if total else 0.0

    @property
    def goodput_rps(self) -> float:
        return self.good / self.duration if self.duration > 0 else 0.0

    def summary(self) -> str:
        lines = [
            f"SLO {self.spec.name!r}: ttft<={self.spec.ttft_target}s "
            f"e2e<={self.spec.e2e_target}s "
            f"@p{self.spec.percentile:.0f}, "
            f"errors<={self.spec.max_error_rate:.1%}",
            f"  requests: {self.submitted} submitted, "
            f"{self.completed} completed, {self.errors} errors "
            f"({self.error_rate:.2%})",
            f"  attainment: {self.attainment:.2%} good "
            f"({self.goodput_rps:.2f} good req/s)",
            f"  ttft  p50/p95/p99: "
            f"{self.ttft_percentiles['p50']:.2f} / "
            f"{self.ttft_percentiles['p95']:.2f} / "
            f"{self.ttft_percentiles['p99']:.2f} s",
            f"  e2e   p50/p95/p99: "
            f"{self.e2e_percentiles['p50']:.2f} / "
            f"{self.e2e_percentiles['p95']:.2f} / "
            f"{self.e2e_percentiles['p99']:.2f} s",
        ]
        for name in sorted(self.per_tenant):
            stats = self.per_tenant[name]
            lines.append(
                f"  tenant {name:18s} completed={stats.completed:6d} "
                f"errors={stats.errors:4d} "
                f"attainment={stats.attainment:.2%}")
        if self.turns is not None:
            first, later = self.turns["first"], self.turns["later"]
            lines.append(
                f"  ttft by turn: first mean {first['mean_s']:.3f}s "
                f"(n={first['n']}), later mean {later['mean_s']:.3f}s "
                f"(n={later['n']})")
        if self.cache is not None:
            lines.append(
                f"  prefix cache: hit rate {self.cache['hit_rate']:.2%} "
                f"({self.cache['cached_tokens']} of "
                f"{self.cache['prompt_tokens']} prompt tokens cached, "
                f"{self.cache['cached_token_ratio']:.2%})")
        if self.paths is not None:
            for name in sorted(self.paths["ttft"]):
                stats = self.paths["ttft"][name]
                lines.append(
                    f"  path {name:10s} n={stats['n']:6d} "
                    f"ttft mean {stats['mean_s']:.3f}s "
                    f"p95 {stats.get('p95', 0.0):.3f}s")
            lines.append(
                f"  kv transfer: {self.paths['kv_transfer_s']:.1f} s total "
                f"over {self.paths['kv_transfers']} handoffs")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "slo": {
                "name": self.spec.name,
                "ttft_target_s": self.spec.ttft_target,
                "e2e_target_s": self.spec.e2e_target,
                "max_error_rate": self.spec.max_error_rate,
                "percentile": self.spec.percentile,
            },
            "duration_s": round(self.duration, 1),
            "submitted": self.submitted,
            "completed": self.completed,
            "errors": self.errors,
            "error_rate": round(self.error_rate, 4),
            "attainment": round(self.attainment, 4),
            "goodput_rps": round(self.goodput_rps, 3),
            "output_tokens": self.output_tokens,
            "ttft_s": {k: round(v, 3)
                       for k, v in self.ttft_percentiles.items()},
            "e2e_s": {k: round(v, 3)
                      for k, v in self.e2e_percentiles.items()},
            "per_tenant": {
                name: {"completed": s.completed, "errors": s.errors,
                       "attainment": round(s.attainment, 4)}
                for name, s in self.per_tenant.items()},
            **({"turns": self.turns} if self.turns is not None else {}),
            **({"cache": self.cache} if self.cache is not None else {}),
            **({"paths": self.paths} if self.paths is not None else {}),
        }


@dataclass
class _TurnTtft:
    """Streaming TTFT aggregate for one turn class (first / later)."""

    n: int = 0
    ttft_sum: float = 0.0
    hist: LogHistogram = field(default_factory=LogHistogram)

    def add(self, ttft: float) -> None:
        self.n += 1
        self.ttft_sum += ttft
        self.hist.add(ttft)

    def to_json(self) -> dict:
        out = {"n": self.n,
               "mean_s": round(self.ttft_sum / self.n, 4) if self.n else 0.0}
        out.update({k: round(v, 4)
                    for k, v in self.hist.percentile_dict().items()})
        return out


class SloTracker:
    """Online SLO accounting: O(1) per observation, O(1)-window snapshots.

    The rolling window keeps the raw records (ordered by completion
    time) only so aged-out records can be *subtracted* from the running
    aggregates; nothing ever iterates, copies, or sorts the window.
    """

    def __init__(self, kernel: SimKernel, spec: SloSpec):
        self.kernel = kernel
        self.spec = spec
        self.started_at = kernel.now
        self.submitted = 0
        # Live window records, sorted by completion time, plus a parallel
        # float list of those completion times so out-of-order stragglers
        # can be placed by binary search instead of a linear scan.
        self._window: list[RequestRecord] = []
        self._ctimes: list[float] = []
        # Rolling-window aggregates (maintained by _window_add/_remove).
        self._w_ok = 0
        self._w_errors = 0
        self._w_good = 0
        self._w_tokens = 0
        self._w_ttft = LogHistogram()
        self._w_e2e = LogHistogram()
        self._w_session = 0
        self._w_cache_hits = 0
        # Whole-run accumulators.
        self.completed = 0
        self.errors = 0
        self.good = 0
        self.output_tokens = 0
        self._run_ttft = LogHistogram()
        self._run_e2e = LogHistogram()
        self.per_tenant: dict[str, TenantStats] = {}
        # Session-turn accumulators (all zero for single-shot traffic).
        self.session_requests = 0       # ok requests with turn >= 1
        self.cache_hit_requests = 0     # of those, cached_tokens > 0
        self.cached_tokens = 0
        self.session_prompt_tokens = 0
        self._turn_stats = {
            "first": _TurnTtft(), "later": _TurnTtft()}
        # Per-serving-path TTFT aggregates (unified vs disagg); only
        # reported when a non-unified path showed up.
        self._path_stats: dict[str, _TurnTtft] = {}
        self.kv_transfers = 0           # ok requests that paid a handoff
        self.kv_transfer_s = 0.0

    # -- ingestion --------------------------------------------------------------

    def note_submitted(self, n: int = 1) -> None:
        self.submitted += n

    def is_good(self, record: RequestRecord) -> bool:
        return (record.ok and record.ttft <= self.spec.ttft_target
                and record.latency <= self.spec.e2e_target)

    def observe(self, record: RequestRecord) -> None:
        window = self._window
        ctimes = self._ctimes
        completed = record.completed
        if not ctimes or completed >= ctimes[-1]:
            window.append(record)
            ctimes.append(completed)
        else:
            # Straggler from a concurrent replica completing out of
            # order: insert in completion order so trimming by the
            # (sorted) front can never be blocked by a late record
            # parked ahead of older ones.  bisect_right keeps FIFO
            # order among equal completion times, matching the old
            # backward scan, at O(log n) compares per straggler.
            idx = bisect_right(ctimes, completed)
            window.insert(idx, record)
            ctimes.insert(idx, completed)
        self._window_add(record)
        self._trim(ctimes[-1])
        tenant = self.per_tenant.setdefault(record.tenant, TenantStats())
        if record.ok:
            self.completed += 1
            tenant.completed += 1
            self.output_tokens += record.output_tokens
            tenant.output_tokens += record.output_tokens
            self._run_ttft.add(record.ttft)
            self._run_e2e.add(record.latency)
            if record.turn >= 1:
                self.session_requests += 1
                self.cached_tokens += record.cached_tokens
                self.session_prompt_tokens += record.prompt_tokens
                if record.cached_tokens > 0:
                    self.cache_hit_requests += 1
                key = "first" if record.turn == 1 else "later"
                self._turn_stats[key].add(record.ttft)
            self._path_stats.setdefault(
                record.path, _TurnTtft()).add(record.ttft)
            if record.kv_transfer_s > 0:
                self.kv_transfers += 1
                self.kv_transfer_s += record.kv_transfer_s
        else:
            self.errors += 1
            tenant.errors += 1
        if self.is_good(record):
            self.good += 1
            tenant.good += 1

    def _window_add(self, record: RequestRecord) -> None:
        if record.ok:
            self._w_ok += 1
            self._w_tokens += record.output_tokens
            self._w_ttft.add(record.ttft)
            self._w_e2e.add(record.latency)
            if record.turn >= 1:
                self._w_session += 1
                if record.cached_tokens > 0:
                    self._w_cache_hits += 1
        else:
            self._w_errors += 1
        if self.is_good(record):
            self._w_good += 1

    def _window_remove(self, record: RequestRecord) -> None:
        if record.ok:
            self._w_ok -= 1
            self._w_tokens -= record.output_tokens
            self._w_ttft.remove(record.ttft)
            self._w_e2e.remove(record.latency)
            if record.turn >= 1:
                self._w_session -= 1
                if record.cached_tokens > 0:
                    self._w_cache_hits -= 1
        else:
            self._w_errors -= 1
        if self.is_good(record):
            self._w_good -= 1

    def _trim(self, now: float) -> None:
        floor = now - self.spec.window
        ctimes = self._ctimes
        aged = bisect_left(ctimes, floor)
        if aged:
            window = self._window
            for i in range(aged):
                self._window_remove(window[i])
            del window[:aged]
            del ctimes[:aged]

    # -- views ------------------------------------------------------------------

    def drained(self) -> bool:
        """Is the rolling window empty right now?  (No trim: a pure
        read of what :meth:`snapshot` would see.)"""
        ctimes = self._ctimes
        return not ctimes or ctimes[-1] < self.kernel.now - self.spec.window

    def snapshot(self) -> SloSnapshot:
        """The rolling-window view right now.

        Empty windows return the vacuously-healthy defaults documented
        on :class:`SloSnapshot`; every field is always a finite number.
        Both the reported percentiles and the ``slo_met`` gate come from
        the *same* :class:`~repro.obs.stats.LogHistogram` estimator,
        so they can never disagree about where a percentile sits.
        """
        now = self.kernel.now
        self._trim(now)
        snap = SloSnapshot(time=now, window=self.spec.window)
        samples = self._w_ok + self._w_errors
        if samples == 0:
            return snap
        span = min(self.spec.window, max(now - self.started_at, 1e-9))
        snap.samples = samples
        snap.completions = self._w_ok
        snap.errors = self._w_errors
        snap.error_rate = self._w_errors / samples
        snap.throughput_rps = self._w_ok / span
        snap.goodput_rps = self._w_good / span
        snap.output_tok_per_s = self._w_tokens / span
        snap.attainment = self._w_good / samples
        p = self.spec.percentile
        ttft_q = self._w_ttft.quantiles((50.0, p, 95.0, 99.0))
        e2e_q = self._w_e2e.quantiles((50.0, p, 95.0, 99.0))
        snap.ttft_p50, ttft_at_p, snap.ttft_p95, snap.ttft_p99 = ttft_q
        snap.e2e_p50, e2e_at_p, snap.e2e_p95, snap.e2e_p99 = e2e_q
        snap.slo_met = (snap.error_rate <= self.spec.max_error_rate
                        and ttft_at_p <= self.spec.ttft_target
                        and e2e_at_p <= self.spec.e2e_target)
        snap.session_samples = self._w_session
        if self._w_session:
            snap.cache_hit_rate = self._w_cache_hits / self._w_session
        return snap

    def report(self) -> SloReport:
        turns = cache = paths = None
        if any(name != "unified" for name in self._path_stats):
            paths = {
                "ttft": {name: stats.to_json()
                         for name, stats in sorted(self._path_stats.items())},
                "kv_transfers": self.kv_transfers,
                "kv_transfer_s": round(self.kv_transfer_s, 3),
            }
        if self.session_requests:
            turns = {key: stats.to_json()
                     for key, stats in self._turn_stats.items()}
            cache = {
                "session_requests": self.session_requests,
                "hits": self.cache_hit_requests,
                "hit_rate": round(
                    self.cache_hit_requests / self.session_requests, 4),
                "cached_tokens": self.cached_tokens,
                "prompt_tokens": self.session_prompt_tokens,
                "cached_token_ratio": round(
                    self.cached_tokens / self.session_prompt_tokens, 4)
                if self.session_prompt_tokens else 0.0,
            }
        return SloReport(
            spec=self.spec,
            duration=self.kernel.now - self.started_at,
            submitted=self.submitted,
            completed=self.completed,
            errors=self.errors,
            good=self.good,
            output_tokens=self.output_tokens,
            ttft_percentiles=self._run_ttft.percentile_dict(),
            e2e_percentiles=self._run_e2e.percentile_dict(),
            per_tenant=dict(self.per_tenant),
            turns=turns,
            cache=cache,
            paths=paths,
        )
