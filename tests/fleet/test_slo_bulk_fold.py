"""Bulk SLO accounting: differential test against the eager tracker.

``_EagerTracker`` is a frozen copy of the ``SloTracker`` that did all of
its bookkeeping inside ``observe``: bucket indices, the straggler
insert, every window, run, tenant, turn and path aggregate, and a trim
at the latest completion, once per record.  The live tracker appends
the record and folds every pending one in at the next read, or when
``_FOLD_AT`` of them wait.

Generated scripts interleave observations (stragglers, equal
completion times, errors, session turns, disagg paths with
``kv_transfer_s``, values on bucket edges) with clock advances and
every kind of read: ``snapshot()``, ``drained()``, ``report()`` and the
four counters.  Streams run long enough to cross the cap mid-stream.
Every read must equal the eager tracker's bit for bit, raw float sums
and histogram counts included, and the pending buffer must stay under
the cap.
"""

from __future__ import annotations

import dataclasses
import math
import random
from array import array
from bisect import bisect_left, bisect_right

from hypothesis import given, settings, strategies as st

from repro.fleet.slo import (_FOLD_AT, RequestRecord, SloReport, SloSnapshot,
                             SloSpec, SloTracker, TenantStats)
from repro.obs.stats import LogHistogram
from repro.simkernel import SimKernel

# -- the oracle: the eager tracker, frozen ------------------------------------


def _add_at(hist, idx):
    hist._counts[idx] += 1
    hist._total += 1


@dataclasses.dataclass
class _EagerTurnTtft:
    n: int = 0
    ttft_sum: float = 0.0
    hist: LogHistogram = dataclasses.field(default_factory=LogHistogram)

    def add_at(self, ttft, idx):
        self.n += 1
        self.ttft_sum += ttft
        _add_at(self.hist, idx)

    def to_json(self):
        out = {"n": self.n,
               "mean_s": round(self.ttft_sum / self.n, 4) if self.n else 0.0}
        out.update({k: round(v, 4)
                    for k, v in self.hist.percentile_dict().items()})
        return out


class _EagerTracker:
    def __init__(self, kernel, spec):
        self.kernel = kernel
        self.spec = spec
        self.started_at = kernel.now
        self.submitted = 0
        self._window = []
        self._ctimes = []
        self._wkeys = array("q")
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
            "first": _EagerTurnTtft(), "later": _EagerTurnTtft()}
        self._path_stats = {}
        self.kv_transfers = 0
        self.kv_transfer_s = 0.0
        self._index = self._run_ttft._index
        self._idx_bits = (self._run_ttft._buckets + 1).bit_length()

    def observe(self, record):
        ok = record.ok
        if ok:
            ttft = record.ttft
            latency = record.latency
            ttft_idx = self._index(ttft)
            e2e_idx = self._index(latency)
            good = (ttft <= self.spec.ttft_target
                    and latency <= self.spec.e2e_target)
            key = (ttft_idx << self._idx_bits | e2e_idx) << 1 | good
        else:
            good = False
            key = -1
        window = self._window
        ctimes = self._ctimes
        completed = record.completed
        if not ctimes or completed >= ctimes[-1]:
            window.append(record)
            ctimes.append(completed)
            self._wkeys.append(key)
        else:
            idx = bisect_right(ctimes, completed)
            window.insert(idx, record)
            ctimes.insert(idx, completed)
            self._wkeys.insert(idx, key)
        tenant = self.per_tenant.get(record.tenant)
        if tenant is None:
            tenant = self.per_tenant[record.tenant] = TenantStats()
        if ok:
            tokens = record.output_tokens
            self._w_ok += 1
            self._w_tokens += tokens
            _add_at(self._w_ttft, ttft_idx)
            _add_at(self._w_e2e, e2e_idx)
            self.completed += 1
            tenant.completed += 1
            self.output_tokens += tokens
            tenant.output_tokens += tokens
            _add_at(self._run_ttft, ttft_idx)
            _add_at(self._run_e2e, e2e_idx)
            if record.turn >= 1:
                self._w_session += 1
                self.session_requests += 1
                self.cached_tokens += record.cached_tokens
                self.session_prompt_tokens += record.prompt_tokens
                if record.cached_tokens > 0:
                    self._w_cache_hits += 1
                    self.cache_hit_requests += 1
                self._turn_stats["first" if record.turn == 1 else "later"] \
                    .add_at(ttft, ttft_idx)
            path_stats = self._path_stats.get(record.path)
            if path_stats is None:
                path_stats = self._path_stats[record.path] = _EagerTurnTtft()
            path_stats.add_at(ttft, ttft_idx)
            if record.kv_transfer_s > 0:
                self.kv_transfers += 1
                self.kv_transfer_s += record.kv_transfer_s
            if good:
                self._w_good += 1
                self.good += 1
                tenant.good += 1
        else:
            self._w_errors += 1
            self.errors += 1
            tenant.errors += 1
        self._trim(ctimes[-1])

    def _trim(self, now):
        floor = now - self.spec.window
        ctimes = self._ctimes
        aged = bisect_left(ctimes, floor)
        if aged:
            window = self._window
            keys = self._wkeys
            ttft_shift = self._idx_bits + 1
            e2e_mask = (1 << self._idx_bits) - 1
            for i in range(aged):
                key = keys[i]
                if key < 0:
                    self._w_errors -= 1
                    continue
                record = window[i]
                self._w_ok -= 1
                self._w_tokens -= record.output_tokens
                self._w_ttft.remove_at(key >> ttft_shift)
                self._w_e2e.remove_at(key >> 1 & e2e_mask)
                if record.turn >= 1:
                    self._w_session -= 1
                    if record.cached_tokens > 0:
                        self._w_cache_hits -= 1
                if key & 1:
                    self._w_good -= 1
            del window[:aged]
            del ctimes[:aged]
            del keys[:aged]

    def drained(self):
        ctimes = self._ctimes
        return not ctimes or ctimes[-1] < self.kernel.now - self.spec.window

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


# -- generated scripts ----------------------------------------------------------

_HIST = LogHistogram()
SPEC = SloSpec(ttft_target=0.5, e2e_target=8.0, max_error_rate=0.05,
               percentile=90.0, window=40.0)
READS = ("snapshot", "drained", "report", "completed", "errors", "good",
         "output_tokens")


def _latency(rng):
    """A latency value, biased onto bucket edges and the SLO targets."""
    kind = rng.randrange(8)
    if kind < 3:
        edge = _HIST.min_value * _HIST.growth ** rng.randrange(
            _HIST._buckets + 1)
        return (edge, math.nextafter(edge, math.inf),
                math.nextafter(edge, 0.0))[kind]
    if kind == 3:
        target = rng.choice((SPEC.ttft_target, SPEC.e2e_target))
        return rng.choice((target, math.nextafter(target, math.inf),
                           math.nextafter(target, 0.0)))
    if kind == 4:
        return rng.choice((0.0, _HIST.min_value * rng.random()))
    if kind == 5:
        return _HIST.max_value * (1.0 + rng.random() * 10.0)
    return rng.random() * rng.choice((1.0, 20.0, 200.0))


@st.composite
def scripts(draw):
    """Hypothesis draws the script's shape and seed; the seed expands
    it into up to ~600 observations with reads in between."""
    n = draw(st.integers(min_value=1, max_value=600))
    straggle = draw(st.sampled_from((0.0, 0.1, 0.5)))
    errors = draw(st.sampled_from((0.0, 0.05, 0.3)))
    reads = draw(st.sampled_from((0.0, 0.01, 0.05, 0.3)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    ops = []
    t = 0.0
    seen = [0.0]
    for _ in range(n):
        t += rng.expovariate(2.0)
        completed = t
        if rng.random() < straggle:
            # Late, sometimes at an already-seen completion time, and
            # sometimes older than the window.
            completed = rng.choice((
                rng.choice(seen), max(0.0, t - rng.random() * 5.0),
                max(0.0, t - SPEC.window - rng.random() * 20.0)))
        seen.append(completed)
        ok = rng.random() >= errors
        turn = rng.choice((0, 0, 1, 2, 5))
        disagg = rng.random() < 0.3
        ops.append(RequestRecord(
            tenant=rng.choice(("a", "b", "c")),
            submitted=completed, completed=completed,
            ttft=_latency(rng), latency=_latency(rng),
            prompt_tokens=rng.randrange(4000),
            output_tokens=rng.randrange(500),
            ok=ok, error="" if ok else "boom",
            session=f"s{turn}" if turn else "", turn=turn,
            cached_tokens=rng.choice((0, 0, 64, 1000)),
            path="disagg" if disagg else "unified",
            kv_transfer_s=rng.choice((0.0, 0.013, 0.1 * rng.random()))
            if disagg else 0.0))
        while rng.random() < reads:
            ops.append(rng.choice(READS))
        if rng.random() < 0.05:
            ops.append(rng.choice((1.0, 25.0, 100.0)))   # clock advance
    return ops


def _counts(tracker):
    return {
        "w_ttft": tracker._w_ttft._counts, "w_e2e": tracker._w_e2e._counts,
        "run_ttft": tracker._run_ttft._counts,
        "run_e2e": tracker._run_e2e._counts,
        "totals": [len(h) for h in (tracker._w_ttft, tracker._w_e2e,
                                    tracker._run_ttft, tracker._run_e2e)],
        "turns": {k: (s.n, s.hist._counts, len(s.hist))
                  for k, s in tracker._turn_stats.items()},
        "paths": {k: (s.n, s.hist._counts, len(s.hist))
                  for k, s in tracker._path_stats.items()},
    }


def _float_sums(live, eager):
    """The run's float sums, as exact hex strings, live then eager."""
    def sums(kv, turns, paths):
        return (kv.hex(), {k: s.ttft_sum.hex() for k, s in turns.items()},
                {k: s.ttft_sum.hex() for k, s in paths.items()})
    return (sums(live._kv_transfer_s, live._turn_stats, live._path_stats),
            sums(eager.kv_transfer_s, eager._turn_stats, eager._path_stats))


def _same_state(live, eager):
    assert _counts(live) == _counts(eager)
    assert live._window == eager._window
    assert live._ctimes == eager._ctimes
    assert live._wkeys == eager._wkeys
    assert (live._w_ok, live._w_errors, live._w_good, live._w_tokens,
            live._w_session, live._w_cache_hits) == (
        eager._w_ok, eager._w_errors, eager._w_good, eager._w_tokens,
        eager._w_session, eager._w_cache_hits)
    live_sums, eager_sums = _float_sums(live, eager)
    assert live_sums == eager_sums


def _read(op, live, eager):
    if op == "snapshot":
        snap, eager_snap = live.snapshot(), eager.snapshot()
        assert dataclasses.asdict(snap) == dataclasses.asdict(eager_snap)
        assert snap.row() == eager_snap.row()
    elif op == "drained":
        assert live.drained() == eager.drained()
        return                      # a pure read: nothing folded
    elif op == "report":
        assert live.report().to_json() == eager.report().to_json()
    else:
        assert getattr(live, op) == getattr(eager, op)
    assert not live._pending
    _same_state(live, eager)


@given(script=scripts())
@settings(max_examples=60, deadline=None)
def test_bulk_fold_matches_eager_tracker(script):
    kernel = SimKernel(seed=0)
    live = SloTracker(kernel, SPEC)
    eager = _EagerTracker(kernel, SPEC)
    for op in script:
        if isinstance(op, RequestRecord):
            live.note_submitted()
            eager.submitted += 1
            kernel.now = max(kernel.now, op.completed)
            live.observe(op)
            eager.observe(op)
        elif isinstance(op, float):
            kernel.now += op
        else:
            _read(op, live, eager)
        assert len(live._pending) < _FOLD_AT
        assert live.drained() == eager.drained()
    for op in READS:
        _read(op, live, eager)


def test_cap_folds_without_a_reader():
    """With no reader at all, the buffer folds at the cap, so memory
    stays bounded: the window is trimmed and aggregates are current."""
    kernel = SimKernel(seed=0)
    live = SloTracker(kernel, SPEC)
    eager = _EagerTracker(kernel, SPEC)
    for i in range(3 * _FOLD_AT):
        record = RequestRecord("a", float(i), float(i), 0.1, 1.0,
                               output_tokens=7)
        live.observe(record)
        eager.observe(record)
        assert len(live._pending) == (i + 1) % _FOLD_AT
    _same_state(live, eager)
    assert len(live._window) <= SPEC.window + 1
