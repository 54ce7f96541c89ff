"""SloTracker under pathological out-of-order completion streams.

Concurrent replicas complete requests out of submission order, so
``observe`` takes *stragglers* — records whose completion time is older
than the window tail.  The tracker keeps the window sorted by
completion time with a bisect insert plus a parallel ``_ctimes`` list
(the O(n)-scan-per-straggler regression this pins); these tests feed it
adversarial streams and check the aggregates are exactly
order-independent.
"""

from __future__ import annotations

import random

from repro.fleet.slo import _FOLD_AT, RequestRecord, SloSpec, SloTracker
from repro.simkernel import SimKernel


def _record(t, ttft=0.5, latency=2.0, tenant="t", ok=True, tokens=10):
    return RequestRecord(tenant=tenant, submitted=t - latency, completed=t,
                         ttft=ttft, latency=latency, prompt_tokens=5,
                         output_tokens=tokens, ok=ok,
                         error="" if ok else "boom")


def _tracker(window=500.0):
    kernel = SimKernel(seed=0)
    spec = SloSpec(ttft_target=1.0, e2e_target=10.0, window=window)
    return kernel, SloTracker(kernel, spec)


def _snapshot_tuple(slo, at):
    slo.kernel.advance_to(at)
    snap = slo.snapshot()
    return tuple(sorted(snap.row().items()))


def test_reversed_stream_matches_sorted_stream():
    """Every record a straggler: the worst case for the insert path."""
    times = [10.0 + 0.25 * i for i in range(800)]
    records = [_record(t, ttft=0.3 + (i % 7) * 0.2,
                       ok=(i % 11 != 0), tenant=f"t{i % 3}")
               for i, t in enumerate(times)]

    _, forward = _tracker()
    for rec in records:
        forward.observe(rec)
    _, backward = _tracker()
    first = records[0]
    backward.observe(records[-1])     # park the newest completion first
    for rec in records[-2::-1]:       # then stragglers, newest to oldest
        backward.observe(rec)
    assert first.completed < records[-1].completed

    at = times[-1]
    assert _snapshot_tuple(forward, at) == _snapshot_tuple(backward, at)
    assert forward.completed == backward.completed
    assert forward.errors == backward.errors


def test_shuffled_stream_is_order_independent():
    rng = random.Random(1234)
    times = [5.0 + rng.random() * 400.0 for _ in range(1500)]
    records = [_record(t, ttft=rng.random() * 2.0,
                       latency=1.0 + rng.random() * 15.0,
                       ok=rng.random() > 0.05,
                       tenant=rng.choice(["a", "b", "c"]))
               for t in times]

    _, sorted_feed = _tracker()
    for rec in sorted(records, key=lambda r: r.completed):
        sorted_feed.observe(rec)
    shuffled = list(records)
    rng.shuffle(shuffled)
    _, shuffled_feed = _tracker()
    for rec in shuffled:
        shuffled_feed.observe(rec)

    at = max(times)
    assert _snapshot_tuple(sorted_feed, at) == _snapshot_tuple(shuffled_feed, at)


def test_window_stays_sorted_and_trims_through_stragglers():
    """A straggler burst around a trim boundary: the (sorted) front must
    keep trimming even though late records keep arriving for old times."""
    _, slo = _tracker(window=100.0)
    # Two interleaved replicas: one prompt, one minutes behind.
    for i in range(300):
        slo.observe(_record(1000.0 + i))             # fresh completions
        slo.observe(_record(950.0 + i * 0.1))        # stragglers far behind
        assert len(slo._pending) < _FOLD_AT
    # Aggregates survived the churn: totals count every observation.
    # (The read folds the pending records into the window first.)
    assert slo.completed == 600
    ctimes = slo._ctimes
    assert all(a <= b for a, b in zip(ctimes, ctimes[1:]))
    assert len(ctimes) == len(slo._window)
    tail = ctimes[-1]
    assert ctimes[0] >= tail - 100.0                 # trimmed to the window


def test_equal_completion_times_keep_fifo_order():
    _, slo = _tracker()
    first = _record(50.0, tenant="first")
    slo.observe(_record(60.0))
    slo.observe(first)
    second = _record(50.0, tenant="second")
    slo.observe(second)                # equal ctime: must land after first
    assert slo.completed == 3          # a read folds the records in
    idx_first = slo._window.index(first)
    idx_second = slo._window.index(second)
    assert idx_first < idx_second
