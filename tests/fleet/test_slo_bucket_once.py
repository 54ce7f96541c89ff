"""The tracker buckets each value once: differential test against the
value-level tracker it replaced.

``_OracleTracker`` is a frozen copy of the ``SloTracker`` that called
``LogHistogram.add``/``remove`` with raw values (five ``_index`` calls
per ok observation, two more per trimmed record, ``is_good`` decided on
add and again on remove).  The live tracker maps ``ttft`` and
``latency`` to bucket indices once, keeps them in a packed window-key
column and reuses them everywhere.  After every observation both must
render the same snapshot row and report, and hold the same histogram
counts and window once that read has folded the observation in, over
streams with stragglers, errors, session turns, disagg
paths and values sitting exactly on bucket edges, one ulp either side,
zero, underflow and overflow.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from hypothesis import given, settings, strategies as st

from repro.fleet.slo import (_FOLD_AT, RequestRecord, SloReport, SloSnapshot,
                             SloSpec, SloTracker, TenantStats)
from repro.obs.stats import LogHistogram
from repro.simkernel import SimKernel

# -- the oracle: the value-level tracker, frozen ------------------------------


@dataclass
class _OracleTurnTtft:
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


class _OracleTracker:
    def __init__(self, kernel, spec):
        self.kernel = kernel
        self.spec = spec
        self.started_at = kernel.now
        self.submitted = 0
        self._window = []
        self._ctimes = []
        self._w_ok = 0
        self._w_errors = 0
        self._w_good = 0
        self._w_tokens = 0
        self._w_ttft = LogHistogram()
        self._w_e2e = LogHistogram()
        self._w_session = 0
        self._w_cache_hits = 0
        self.completed = 0
        self.errors = 0
        self.good = 0
        self.output_tokens = 0
        self._run_ttft = LogHistogram()
        self._run_e2e = LogHistogram()
        self.per_tenant = {}
        self.session_requests = 0
        self.cache_hit_requests = 0
        self.cached_tokens = 0
        self.session_prompt_tokens = 0
        self._turn_stats = {
            "first": _OracleTurnTtft(), "later": _OracleTurnTtft()}
        self._path_stats = {}
        self.kv_transfers = 0
        self.kv_transfer_s = 0.0

    def is_good(self, record):
        return (record.ok and record.ttft <= self.spec.ttft_target
                and record.latency <= self.spec.e2e_target)

    def observe(self, record):
        window = self._window
        ctimes = self._ctimes
        completed = record.completed
        if not ctimes or completed >= ctimes[-1]:
            window.append(record)
            ctimes.append(completed)
        else:
            idx = bisect_right(ctimes, completed)
            window.insert(idx, record)
            ctimes.insert(idx, completed)
        self._window_add(record)
        self._trim(ctimes[-1])
        tenant = self.per_tenant.get(record.tenant)
        if tenant is None:
            tenant = self.per_tenant[record.tenant] = TenantStats()
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
            turn_ttft = self._path_stats.get(record.path)
            if turn_ttft is None:
                turn_ttft = self._path_stats[record.path] = _OracleTurnTtft()
            turn_ttft.add(record.ttft)
            if record.kv_transfer_s > 0:
                self.kv_transfers += 1
                self.kv_transfer_s += record.kv_transfer_s
        else:
            self.errors += 1
            tenant.errors += 1
        if self.is_good(record):
            self.good += 1
            tenant.good += 1

    def _window_add(self, record):
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

    def _window_remove(self, record):
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

    def _trim(self, now):
        floor = now - self.spec.window
        ctimes = self._ctimes
        aged = bisect_left(ctimes, floor)
        if aged:
            window = self._window
            for i in range(aged):
                self._window_remove(window[i])
            del window[:aged]
            del ctimes[:aged]

    def snapshot(self):
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

    def report(self):
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


# -- generated streams ---------------------------------------------------------

_HIST = LogHistogram()
_EDGE_K = st.integers(min_value=0, max_value=_HIST._buckets)
SPEC = SloSpec(ttft_target=0.5, e2e_target=8.0, max_error_rate=0.05,
               percentile=90.0, window=40.0)


@st.composite
def latencies(draw):
    """A latency value, biased onto bucket edges and the SLO targets."""
    kind = draw(st.sampled_from(
        ("edge", "edge_up", "edge_down", "target", "zero", "underflow",
         "overflow", "plain")))
    if kind.startswith("edge"):
        edge = _HIST.min_value * _HIST.growth ** draw(_EDGE_K)
        if kind == "edge_up":
            return math.nextafter(edge, math.inf)
        if kind == "edge_down":
            return math.nextafter(edge, 0.0)
        return edge
    if kind == "target":
        target = draw(st.sampled_from((SPEC.ttft_target, SPEC.e2e_target)))
        return draw(st.sampled_from(
            (target, math.nextafter(target, math.inf),
             math.nextafter(target, 0.0))))
    if kind == "zero":
        return 0.0
    if kind == "underflow":
        return draw(st.floats(min_value=0.0, max_value=_HIST.min_value,
                              exclude_max=True))
    if kind == "overflow":
        return draw(st.floats(min_value=_HIST.max_value, max_value=1e12))
    return draw(st.floats(min_value=0.0, max_value=200.0))


@st.composite
def streams(draw):
    records = []
    t = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=50))):
        t += draw(st.floats(min_value=0.0, max_value=15.0))
        # Negative jitter makes stragglers; some land before the window.
        completed = max(0.0, t - draw(st.sampled_from(
            (0.0, 0.0, 0.0, 1.0, 5.0, 60.0))))
        ok = draw(st.integers(min_value=0, max_value=5)) > 0
        turn = draw(st.sampled_from((0, 0, 1, 2, 5)))
        disagg = draw(st.booleans())
        records.append(RequestRecord(
            tenant=draw(st.sampled_from(("a", "b"))),
            submitted=completed, completed=completed,
            ttft=draw(latencies()), latency=draw(latencies()),
            prompt_tokens=draw(st.integers(min_value=0, max_value=4000)),
            output_tokens=draw(st.integers(min_value=0, max_value=500)),
            ok=ok, error="" if ok else "boom",
            session=f"s{turn}" if turn else "", turn=turn,
            cached_tokens=draw(st.sampled_from((0, 0, 64, 1000))),
            path="disagg" if disagg else "unified",
            kv_transfer_s=draw(st.sampled_from((0.0, 0.013, 0.5)))
            if disagg else 0.0))
        # Occasionally read a snapshot later in simulated time, so the
        # snapshot's own trim ages records out between observations.
        records.append(draw(st.sampled_from((None, None, None, 25.0))))
    return records


def _counts(tracker):
    return {
        "w_ttft": tracker._w_ttft._counts, "w_e2e": tracker._w_e2e._counts,
        "run_ttft": tracker._run_ttft._counts,
        "run_e2e": tracker._run_e2e._counts,
        "turns": {k: s.hist._counts for k, s in tracker._turn_stats.items()},
        "paths": {k: s.hist._counts for k, s in tracker._path_stats.items()},
    }


@given(stream=streams())
@settings(max_examples=100, deadline=None)
def test_tracker_matches_value_level_oracle(stream):
    kernel = SimKernel(seed=0)
    live = SloTracker(kernel, SPEC)
    oracle = _OracleTracker(kernel, SPEC)
    for item in stream:
        if item is None:
            continue
        if isinstance(item, float):
            kernel.now += item
        else:
            live.note_submitted()
            oracle.submitted += 1
            kernel.now = max(kernel.now, item.completed)
            live.observe(item)
            oracle.observe(item)
        assert len(live._pending) < _FOLD_AT
        # The live tracker folds observations in at a read, so its
        # internals are compared after one.
        assert live.snapshot().row() == oracle.snapshot().row()
        assert _counts(live) == _counts(oracle)
        assert live._window == oracle._window
        assert live.report().to_json() == oracle.report().to_json()


def test_every_tracker_histogram_shares_one_layout():
    slo = SloTracker(SimKernel(seed=0), SPEC)
    slo.observe(RequestRecord("a", 0.0, 1.0, 0.1, 1.0, path="disagg",
                              turn=1))
    slo.snapshot()                      # folds the record in
    hists = [slo._w_ttft, slo._w_e2e, slo._run_ttft, slo._run_e2e,
             *(s.hist for s in slo._turn_stats.values()),
             *(s.hist for s in slo._path_stats.values())]
    assert len(hists) == 7
    assert {(h.min_value, h.max_value, h.growth) for h in hists} == {
        (_HIST.min_value, _HIST.max_value, _HIST.growth)}
