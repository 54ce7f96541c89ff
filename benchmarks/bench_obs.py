"""Observability overhead on the serving hot path.

The PR 4 acceptance cell (``demo_grid`` cell 0: poisson/hops, ~3.5k
requests at 10x demo volume) runs in two arms — metrics registry +
request spans recording, and fully dark (``kernel.obs.disable()``) —
and the measured cost of instrumentation is the **median of paired
deltas** over alternating-order rounds.

What is timed: the simulated serving day (``fleet.start`` through
``run_scenario``'s drain), i.e. everything the instrumentation touches
per request.  One-shot end-of-run reporting — digest computation, the
``FleetReport.obs`` block, scorecard reduction — happens identically
outside the timed window in both arms (``obs_report=False``; the
scraper is likewise off in both so the comparison isolates exactly
what the criterion names: metrics + spans enabled vs disabled).  The
absolute cost of the full default surface, reporting included, is what
pytest-benchmark's own stats track via the ``run_cell`` rounds below.

Why paired medians rather than min-of-rounds: on shared CI hardware a
single ~0.8 s cell run jitters by tens of percent, far more than the
instrumentation costs.  Interleaving the arms (on/off, then off/on)
cancels slow drift, and the median of the per-round differences
discards the pathological rounds entirely.  Timing runs pyperf-style
— ``gc.collect()`` then ``gc.disable()`` around each timed run — so
neither arm pays the other's garbage and nondeterministic collector
scheduling (the dominant variance source observed on this cell)
stays out of the comparison.

The budget is **<= 5%** (with a small absolute floor to absorb timer
noise on sub-second runs): spans are one-call closed records written
once per request milestone, counters are cached child handles, and
every gauge is a collection-time callback, so the hot loop pays one
branch when observability is off and a handful of float ops when on.

``extra_info`` pins the deterministic witnesses — the span, metrics,
and scrape digests of both full ``run_cell`` rounds must agree with
each other (asserted here) and with the checked-in baseline (enforced
by ``check_regression.py``'s metric-drift gate).
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
import tracemalloc

from repro.campaign.catalogue import demo_grid
from repro.campaign.runner import play, run_cell
from repro.fleet import Fleet
from repro.obs.alerts import AlertEvaluator
from repro.obs.critical_path import CriticalPathAnalyzer

#: Paired (enabled, dark) rounds; order alternates round to round.
ROUNDS = 6
#: Measurement attempts: shared hardware shows multi-minute drift
#: windows that inflate every round of one attempt; a genuine
#: regression fails all of them, a drift window only the one it
#: overlaps.  First attempt within budget wins.
ATTEMPTS = 3
OVERHEAD_BUDGET_PCT = 5.0
#: Absolute-noise floor: deltas under this many seconds are timer noise
#: on a sub-second run, not a hot-path cost.
ABS_FLOOR_S = 0.05
#: Peak traced heap of a full ``run_cell`` of the 1 h poisson cell,
#: observability on minus dark, per request, after a warm-up run:
#: measured 487 bytes (CPython 3.11), so 585 leaves 20% headroom.  With
#: one attribute dict per span it measured 1,277.
PEAK_BYTES_BUDGET = 585
#: Heap that observability keeps once the run is over, per request:
#: measured 299 bytes (span id and time columns, compressed span text,
#: metrics and scrape stores), so 360 leaves 20% headroom.  With one
#: attribute dict per span it measured 1,192.
RETAINED_BYTES_BUDGET = 360


def _cell_spec():
    spec, _axes = demo_grid(seed=42).expand()[0]
    return spec


def _timed_day(enabled: bool) -> float:
    """Wall-clock of the simulated day with recording on or off.

    Both arms skip the scraper and the end-of-run obs report so the
    timed window contains exactly the per-request instrumentation
    difference; see the module docstring.
    """
    fleet = Fleet(dataclasses.replace(_cell_spec(), scrape_interval=0.0),
                  observability=enabled, obs_report=False)
    kernel = fleet.kernel

    def cell(env):
        yield from fleet.start()
        report = yield from fleet.run_scenario()
        return report

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        report = kernel.run(until=kernel.spawn(cell(kernel)))
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    # Sanity outside the timed window: the arm really was on/off, and
    # the simulated day really happened.
    assert report.arrivals > 3000
    assert (kernel.obs.spans.span_count > 0) == enabled
    fleet.shutdown()
    return elapsed


def test_obs_overhead_campaign_cell_10x(benchmark):
    """Metrics + spans on the 10x hot cell: <= 5% wall clock.

    pytest-benchmark times the full default surface through
    ``run_cell`` (so the baseline tracks the cost users actually pay,
    reporting included); the overhead assertion uses the paired-delta
    protocol documented in the module docstring.
    """
    for _ in range(2):                          # warm both arms
        _timed_day(True)
        _timed_day(False)

    attempts = []
    for _attempt in range(ATTEMPTS):
        deltas: list[float] = []
        on_times: list[float] = []
        off_times: list[float] = []
        for r in range(ROUNDS):
            times = {}
            arms = (True, False) if r % 2 == 0 else (False, True)
            for enabled in arms:
                times[enabled] = _timed_day(enabled)
            on_times.append(times[True])
            off_times.append(times[False])
            deltas.append(times[True] - times[False])
        attempts.append((statistics.median(deltas), deltas,
                         on_times, off_times))
        if attempts[-1][0] <= max(ABS_FLOOR_S,
                                  OVERHEAD_BUDGET_PCT / 100.0
                                  * min(off_times)):
            break
    _, deltas, on_times, off_times = min(attempts)

    # The full default surface (spans + registry + scraper + digests),
    # benchmarked absolutely, then pinned for determinism: two more
    # rounds, run here so that they also run under --benchmark-disable
    # (which makes pedantic call once), must produce identical digests.
    benchmark.pedantic(run_cell, args=(_cell_spec(),), rounds=2,
                       iterations=1)
    rows = [run_cell(_cell_spec()) for _ in range(2)]
    row = rows[0]
    assert rows[1]["obs"]["digests"] == row["obs"]["digests"]
    assert rows[1]["obs"]["scrape"] == row["obs"]["scrape"]
    assert rows[1]["trace_digest"] == row["trace_digest"]

    delta = statistics.median(deltas)
    t_off = min(off_times)
    overhead_pct = 100.0 * delta / t_off
    benchmark.extra_info.update({
        "requests": row["arrivals"],
        "cell": row["cell"],
        "completed": row["completed"],
        "errors": row["errors"],
        "trace_digest": row["trace_digest"],
        "spans_digest": row["obs"]["digests"]["spans"],
        "metrics_digest": row["obs"]["digests"]["metrics"],
        "scrape_digest": row["obs"]["scrape"]["digest"],
        "finished_spans": row["obs"]["finished_spans"],
        "scrapes": row["obs"]["scrape"]["scrapes"],
    })
    print(f"\nobs overhead: on(min)={min(on_times):.3f}s "
          f"off(min)={t_off:.3f}s paired deltas "
          f"{[f'{d * 1e3:+.0f}ms' for d in deltas]} "
          f"median {delta * 1e3:+.1f}ms ({overhead_pct:+.1f}%)")
    assert row["errors"] == 0
    assert row["arrivals"] > 3000
    assert overhead_pct <= OVERHEAD_BUDGET_PCT or delta <= ABS_FLOOR_S, (
        f"observability overhead {overhead_pct:.1f}% "
        f"({delta * 1e3:.0f}ms) exceeds the {OVERHEAD_BUDGET_PCT}% budget")


def _full_obs_day():
    """One hot-cell day with the full surface on (scraper + alerts),
    reporting off; returns (wall_s, kernel, fleet)."""
    fleet = Fleet(_cell_spec(), obs_report=False)
    kernel = fleet.kernel

    def cell(env):
        yield from fleet.start()
        report = yield from fleet.run_scenario()
        return report

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        report = kernel.run(until=kernel.spawn(cell(kernel)))
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    assert report.arrivals > 3000
    return elapsed, kernel, fleet


def test_analysis_plane_one_shot_cost(benchmark):
    """Alert evaluation + critical-path attribution on the 10x cell.

    The alert evaluator runs *inside* the day at scrape cadence; its
    in-day cost is a handful of ``value_at`` bisects per tick and is
    covered by the overall run_cell trajectory.  What this test budgets
    is the **one-shot analysis pass** the report block pays at the end:
    a from-scratch re-evaluation of the whole rule set over every
    scrape instant, plus the full critical-path decomposition of every
    span tree — together they must cost no more than the same 5% (with
    the same absolute floor) of the dark serving day.

    The re-evaluation doubles as an end-to-end determinism check: a
    fresh evaluator replayed over the scrape history must reproduce the
    in-day evaluator's digest byte-for-byte.
    """
    day_s, kernel, fleet = _full_obs_day()
    evaluator = fleet.alerts
    assert evaluator is not None and evaluator.evaluations > 0
    scraper = evaluator.scraper
    spans = kernel.obs.spans

    digests = []

    def analysis():
        replay = AlertEvaluator(kernel, scraper, evaluator.rules)
        for sample in scraper.samples:
            replay.evaluate_at(sample.time)
        report = CriticalPathAnalyzer(spans).report()
        digests.append((replay.digest(), report.digest()))
        return report

    gc.collect()
    gc.disable()
    try:
        costs = []
        for _ in range(5):
            t0 = time.perf_counter()
            report = analysis()
            costs.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    analysis_s = min(costs)

    # Determinism: every pass identical, and the replayed alert digest
    # matches what the in-day evaluator recorded.
    assert len(set(digests)) == 1
    assert digests[0][0] == evaluator.digest()

    benchmark.pedantic(analysis, rounds=2, iterations=1)
    benchmark.extra_info.update({
        "requests": report.requests,
        "alert_rules": len(evaluator.rules),
        "alert_events": len(evaluator.events),
        "alerts_digest": evaluator.digest(),
        "attribution_digest": report.digest(),
        "attribution_top_e2e_p99": report.top_phase("e2e", "p99"),
    })
    budget_s = max(ABS_FLOOR_S, OVERHEAD_BUDGET_PCT / 100.0 * day_s)
    print(f"\nanalysis plane: day={day_s:.3f}s "
          f"one-shot={analysis_s * 1e3:.1f}ms "
          f"(budget {budget_s * 1e3:.0f}ms, "
          f"{report.requests} requests, "
          f"{len(evaluator.events)} alert events)")
    assert analysis_s <= budget_s, (
        f"analysis plane one-shot pass {analysis_s * 1e3:.0f}ms exceeds "
        f"max({ABS_FLOOR_S}s, {OVERHEAD_BUDGET_PCT}% of the "
        f"{day_s:.2f}s day)")


def _poisson_hour():
    """The 1 h poisson cell: ``demo_grid(1)`` cell 0, the repo
    benchmark's ``poisson_steady`` spec."""
    return dataclasses.replace(demo_grid(seed=1).expand()[0][0],
                               horizon=3600.0)


def _traced_peak(observability: bool) -> tuple[int, int]:
    """``(peak Python heap bytes (tracemalloc), arrivals)`` of one
    ``run_cell`` of the 1 h poisson cell."""
    spec = _poisson_hour()
    gc.collect()
    tracemalloc.start()
    try:
        row = run_cell(spec, observability=observability)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row["errors"] == 0 and row["arrivals"] > 7000
    return peak, row["arrivals"]


def test_obs_peak_bytes_per_request():
    """Observability on raises the peak heap of a full ``run_cell`` by
    at most ``PEAK_BYTES_BUDGET`` bytes per request over the dark run.

    Allocation is deterministic for a fixed spec and seed, so unlike
    the wall-clock gates this one measures the program, not the host.
    The end-of-run analysis plane (digests and attribution) sets the
    on-arm's peak: it must read the retained stores without copying
    them.  An untraced warm-up run first pays the one-time costs (lazy
    imports, caches), so neither arm is charged for them.  A budget
    per request, unlike a ratio of the two peaks, does not tighten
    when the dark run gets cheaper.
    """
    run_cell(_poisson_hour(), observability=False)
    dark, _ = _traced_peak(False)
    on, requests = _traced_peak(True)
    per_request = (on - dark) / requests
    print(f"\nobs peak: on={on / 2 ** 20:.2f}MB dark={dark / 2 ** 20:.2f}MB "
          f"{per_request:.0f} B/request (budget {PEAK_BYTES_BUDGET})")
    assert per_request <= PEAK_BYTES_BUDGET, (
        f"observability raises the peak heap by {per_request:.0f} bytes "
        f"per request (budget {PEAK_BYTES_BUDGET})")


def _retained_after_play(observability: bool) -> tuple[int, int]:
    """``(heap bytes still held after play, arrivals)`` of the 1 h
    poisson cell, with the returned report and fleet kept alive."""
    gc.collect()
    tracemalloc.start()
    try:
        report, fleet, _digest = play(_poisson_hour(), observability)
        gc.collect()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.arrivals > 7000 and fleet.kernel.now > 0
    return current, report.arrivals


def test_obs_retained_bytes_per_request():
    """What observability keeps after the run costs at most
    ``RETAINED_BYTES_BUDGET`` heap bytes per request.

    The on-arm minus the dark arm, both measured after ``play`` with
    the report and fleet alive: the span store, the metrics registry,
    the scrape and alert histories.  A budget per request, unlike the
    peak ratio above, does not tighten when the dark run gets cheaper.
    An untraced warm-up run first pays the one-time costs (lazy
    imports, caches), so neither arm is charged for them.
    """
    play(_poisson_hour(), False)
    dark, _ = _retained_after_play(False)
    on, requests = _retained_after_play(True)
    per_request = (on - dark) / requests
    print(f"\nobs retained: on={on / 2 ** 20:.2f}MB "
          f"dark={dark / 2 ** 20:.2f}MB {per_request:.0f} B/request "
          f"(budget {RETAINED_BYTES_BUDGET})")
    assert per_request <= RETAINED_BYTES_BUDGET, (
        f"observability keeps {per_request:.0f} bytes per request after "
        f"the run (budget {RETAINED_BYTES_BUDGET})")
