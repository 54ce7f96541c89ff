"""Streaming-tracker regressions: out-of-order completions, estimator
agreement, snapshot cost independence, and streaming-vs-exact equality."""

from __future__ import annotations

from array import array
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet.slo import _FOLD_AT, RequestRecord, SloSpec, SloTracker
from repro.simkernel import SimKernel


def _record(t, ttft=0.5, latency=2.0, tenant="t", ok=True, tokens=100):
    return RequestRecord(tenant=tenant, submitted=t - latency, completed=t,
                         ttft=ttft, latency=latency, prompt_tokens=50,
                         output_tokens=tokens, ok=ok,
                         error="" if ok else "boom")


def _tracker(window=100.0, percentile=95.0):
    kernel = SimKernel(seed=0)
    spec = SloSpec(ttft_target=1.0, e2e_target=10.0, max_error_rate=0.1,
                   window=window, percentile=percentile)
    return kernel, SloTracker(kernel, spec)


# -- out-of-order completions (trim-blocking regression) ------------------------


def test_out_of_order_completion_does_not_block_trimming():
    """A late-completing straggler observed *after* newer records must
    not park at the window front and shield older records from the
    trim.  Regression: the old deque-append trim assumed completion
    order and silently inflated window stats under concurrency."""
    kernel, slo = _tracker(window=100.0)
    # Two replicas complete out of order: t=200 arrives before t=150.
    slo.observe(_record(50.0))
    slo.observe(_record(200.0))
    slo.observe(_record(150.0))          # straggler, observed last
    kernel.now = 260.0
    snap = slo.snapshot()
    # Window is [160, 260]: only the t=200 record remains.
    assert snap.samples == 1
    assert [r.completed for r in slo._window] == [200.0]


def test_interleaved_completions_keep_window_sorted_and_counted():
    kernel, slo = _tracker(window=50.0)
    times = [10.0, 30.0, 20.0, 40.0, 15.0, 35.0, 25.0]
    for t in times:
        slo.observe(_record(t, tokens=10))
    kernel.now = 60.0
    snap = slo.snapshot()                # trim floor is t=10.0, inclusive
    ordered = [r.completed for r in slo._window]
    assert ordered == sorted(ordered) and len(ordered) == len(times)
    in_window = [t for t in times if t >= 60.0 - 50.0]
    assert snap.samples == len(in_window)
    assert snap.completions == len(in_window)
    # Aggregates survived the churn exactly.
    assert snap.output_tok_per_s * min(50.0, 60.0) == pytest.approx(
        10 * len(in_window))


def test_straggler_older_than_window_front_is_trimmed_not_stuck():
    kernel, slo = _tracker(window=100.0)
    slo.observe(_record(500.0))
    slo.observe(_record(100.0))          # far too old already
    kernel.now = 520.0
    snap = slo.snapshot()
    assert snap.samples == 1
    assert slo.report().completed == 2   # whole-run view keeps both


# -- one estimator for percentiles and the gate ---------------------------------


@pytest.mark.parametrize("n", [1, 2, 5, 100])
def test_reported_percentile_and_gate_agree(n):
    """snapshot p99 and slo_met must come from one estimator: with
    percentile=99 the gate verdict is exactly `reported <= target`,
    at every window population (the old nearest-rank vs np.percentile
    pair disagreed at small n)."""
    for ttft in (0.2, 1.5):              # one passing, one violating
        kernel, slo = _tracker(percentile=99.0)
        kernel.now = 10.0
        for _ in range(n):
            slo.observe(_record(9.0, ttft=ttft, latency=2.0))
        snap = slo.snapshot()
        expected = (snap.error_rate <= slo.spec.max_error_rate
                    and snap.ttft_p99 <= slo.spec.ttft_target
                    and snap.e2e_p99 <= slo.spec.e2e_target)
        assert snap.slo_met is expected


def test_gate_uses_spec_percentile_from_same_estimator():
    kernel, slo = _tracker(percentile=50.0)
    kernel.now = 10.0
    # Median passes the target, p95 does not: gate at p50 must pass.
    for _ in range(10):
        slo.observe(_record(9.0, ttft=0.2))
    slo.observe(_record(9.0, ttft=50.0))
    snap = slo.snapshot()
    assert snap.ttft_p50 <= slo.spec.ttft_target < snap.ttft_p95
    assert snap.slo_met


# -- snapshot cost independent of history ---------------------------------------


class _NoIterDeque(deque):
    """A window that forbids wholesale iteration/copies."""

    def __iter__(self):
        raise AssertionError("snapshot() iterated the window")

    def __reversed__(self):
        raise AssertionError("snapshot() iterated the window")


class _NoIterArray(array):
    """The window's packed key column, forbidding iteration/copies."""

    def __iter__(self):
        raise AssertionError("snapshot() iterated the window keys")

    def __reversed__(self):
        raise AssertionError("snapshot() iterated the window keys")


def test_snapshot_never_iterates_the_window():
    """The O(1) contract: snapshot() reads running aggregates only —
    it must not materialize, scan, or sort the window (its records or
    its key column)."""
    kernel, slo = _tracker(window=1000.0)
    slo._window = _NoIterDeque()
    slo._wkeys = _NoIterArray(slo._wkeys.typecode)
    kernel.now = 500.0
    for i in range(200):
        slo.observe(_record(float(i), ttft=0.1 + i * 0.001))
    snap = slo.snapshot()
    assert snap.samples == 200
    assert snap.ttft_p99 > 0


def test_snapshot_work_is_independent_of_total_observed():
    """Operation-count harness: aggregate updates scale with the
    *window*, not the run; a snapshot with nothing pending adds zero.
    ``observe`` appends; ``_fold`` takes each record into the aggregates
    once and ``_trim`` subtracts each once, so those are what is
    counted."""
    calls = {"folded": 0, "trimmed": 0}

    class CountingTracker(SloTracker):
        def _fold(self):
            assert len(self._pending) <= _FOLD_AT
            calls["folded"] += len(self._pending)
            super()._fold()

        def _trim(self, now):
            before = len(self._ctimes)
            super()._trim(now)
            calls["trimmed"] += before - len(self._ctimes)

    kernel = SimKernel(seed=0)
    slo = CountingTracker(kernel, SloSpec(
        ttft_target=1.0, e2e_target=10.0, max_error_rate=0.1, window=10.0))
    for i in range(5000):
        kernel.now = float(i)
        slo.observe(_record(float(i)))
        assert len(slo._pending) < _FOLD_AT
        if i % 97 == 0:                     # a reader now and then
            slo.snapshot()
            assert len(slo._window) <= 11
    slo.snapshot()
    assert calls["folded"] == 5000          # one per observation
    assert calls["trimmed"] >= 5000 - 11    # trim keeps pace with the window
    assert len(slo._window) <= 11
    before = dict(calls)
    for _ in range(50):
        slo.snapshot()
    assert calls == before                  # snapshots do no aggregate work


# -- streaming aggregates == exact recompute ------------------------------------


@st.composite
def request_streams(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    records = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.0, max_value=30.0))
        jitter = draw(st.floats(min_value=-5.0, max_value=5.0))
        records.append(_record(
            max(0.0, t + jitter),
            ttft=draw(st.floats(min_value=1e-3, max_value=20.0)),
            latency=draw(st.floats(min_value=1e-3, max_value=200.0)),
            ok=draw(st.booleans()),
            tokens=draw(st.integers(min_value=0, max_value=500))))
    return records


@given(stream=request_streams())
@settings(max_examples=60, deadline=None)
def test_streaming_aggregates_match_exact_recompute(stream):
    """Window counts/rates from the running aggregates equal a brute
    force recompute over the records actually inside the window."""
    kernel, slo = _tracker(window=60.0)
    for record in stream:
        kernel.now = max(kernel.now, record.completed)
        slo.observe(record)
    snap = slo.snapshot()
    # The tracker trims strictly (completed < now - window ages out);
    # recompute membership with the same rule.
    floor = kernel.now - slo.spec.window
    inside = [r for r in stream if r.completed >= floor]
    oks = [r for r in inside if r.ok]
    good = sum(slo.is_good(r) for r in inside)
    assert snap.samples == len(inside)
    assert snap.completions == len(oks)
    assert snap.errors == len(inside) - len(oks)
    assert snap.attainment == pytest.approx(
        good / len(inside) if inside else 1.0)
    span = min(slo.spec.window, max(kernel.now - slo.started_at, 1e-9))
    assert snap.output_tok_per_s == pytest.approx(
        sum(r.output_tokens for r in oks) / span)
    if oks:
        bound = slo._w_ttft.rel_error_bound()
        exact = sorted(r.ttft for r in oks)
        import math
        rank = max(0, math.ceil(0.95 * len(exact)) - 1)
        assert snap.ttft_p95 == pytest.approx(exact[rank], rel=bound)
