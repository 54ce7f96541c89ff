"""SloTracker's per-turn and prefix-cache accounting."""

from __future__ import annotations

from repro.fleet import RequestRecord, SloSpec, SloTracker
from repro.simkernel import SimKernel


def _record(t, turn=0, cached=0, ttft=0.5, ok=True, prompt=100):
    return RequestRecord(
        tenant="chat", submitted=t - 1.0, completed=t, ttft=ttft,
        latency=1.0, prompt_tokens=prompt, output_tokens=50, ok=ok,
        session="s0" if turn else "", turn=turn, cached_tokens=cached)


def _tracker(window=300.0):
    kernel = SimKernel(seed=1)
    return kernel, SloTracker(kernel, SloSpec(window=window))


def test_single_shot_traffic_reports_no_session_blocks():
    kernel, tracker = _tracker()
    for i in range(10):
        kernel.now = float(i)
        tracker.observe(_record(kernel.now))
    report = tracker.report()
    assert report.turns is None and report.cache is None
    assert "turns" not in report.to_json()
    snap = tracker.snapshot()
    assert snap.session_samples == 0
    assert "cache_hit_rate" not in snap.row()


def test_turn_split_and_cache_rates():
    kernel, tracker = _tracker()
    # 3 sessions x (1 first turn, 2 later turns); later turns hit.
    t = 0.0
    for s in range(3):
        t += 1.0
        kernel.now = t
        tracker.observe(_record(t, turn=1, cached=0, ttft=0.8))
        for turn in (2, 3):
            t += 1.0
            kernel.now = t
            tracker.observe(_record(t, turn=turn, cached=80, ttft=0.2,
                                    prompt=200))
    report = tracker.report()
    assert report.turns["first"]["n"] == 3
    assert report.turns["later"]["n"] == 6
    assert report.turns["first"]["mean_s"] == 0.8
    assert report.turns["later"]["mean_s"] == 0.2
    assert report.cache["session_requests"] == 9
    assert report.cache["hits"] == 6
    assert report.cache["hit_rate"] == round(6 / 9, 4)
    assert report.cache["cached_tokens"] == 6 * 80
    assert report.cache["prompt_tokens"] == 3 * 100 + 6 * 200
    snap = tracker.snapshot()
    assert snap.session_samples == 9
    assert snap.cache_hit_rate == 6 / 9
    row = snap.row()
    assert row["session_samples"] == 9
    assert row["cache_hit_rate"] == round(6 / 9, 4)
    payload = report.to_json()
    assert payload["cache"]["hit_rate"] == round(6 / 9, 4)
    assert "later" in payload["turns"]


def test_window_trim_removes_session_counters():
    kernel, tracker = _tracker(window=10.0)
    kernel.now = 1.0
    tracker.observe(_record(1.0, turn=2, cached=64))
    kernel.now = 100.0
    tracker.observe(_record(100.0, turn=3, cached=0))
    snap = tracker.snapshot()
    assert snap.session_samples == 1          # the old one aged out
    assert snap.cache_hit_rate == 0.0         # survivor was a miss
    # Whole-run accumulators keep both.
    cache = tracker.report().cache
    assert cache["session_requests"] == 2
    assert cache["hits"] == 1


def test_errored_turns_do_not_count_as_session_samples():
    kernel, tracker = _tracker()
    kernel.now = 1.0
    tracker.observe(_record(1.0, turn=2, cached=64, ok=False))
    assert tracker.snapshot().session_samples == 0
    report = tracker.report()
    assert report.turns is None and report.cache is None
    assert report.errors == 1
