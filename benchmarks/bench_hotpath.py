"""Serving hot-path benchmarks: requests simulated per second.

Three benchmarks pin the per-request cost centers overhauled by the
streaming-statistics work:

* **SLO tracker** — one fixed request stream observed through three
  rolling-window widths.  With streaming aggregates the wall time is
  flat across window sizes (snapshot cost no longer scales with the
  window, let alone the run); the old copy-filter-sort snapshot scaled
  with both.
* **Router pick** — steady-state request routing with periodic health
  churn; the epoch-cached rotation allocates nothing per request.
* **Campaign cell at 10x volume** — one ``demo_grid`` cell end to end
  (~3.5k requests, ~430k decode iterations pre-coalescing).  This is
  the acceptance benchmark: the coalesced engine + streaming metrics
  path simulates it >= 3x faster than the pre-overhaul code at the same
  request volume.

Requests-per-second is ``extra_info["requests"] / stats.mean`` of each
record; the deterministic simulated metrics in ``extra_info`` feed the
usual drift gate (``benchmarks/check_regression.py``).
"""

from __future__ import annotations

import pytest

from repro.campaign.catalogue import demo_grid
from repro.campaign.runner import run_cell
from repro.fleet.slo import RequestRecord, SloSpec, SloTracker
from repro.services.router import LlmRouter
from repro.simkernel import SimKernel

TRACKER_REQUESTS = 50_000
TRACKER_SNAPSHOT_EVERY = 30.0        # the autoscaler's control interval
ROUTER_REQUESTS = 50_000


def _drive_tracker(window: float):
    kernel = SimKernel(seed=11)
    tracker = SloTracker(kernel, SloSpec(
        ttft_target=5.0, e2e_target=60.0, window=window))
    next_snapshot = TRACKER_SNAPSHOT_EVERY
    snapshots = 0
    last = None
    for i in range(TRACKER_REQUESTS):
        t = i * 0.2                   # 5 req/s for 10k simulated seconds
        kernel.now = t
        tracker.note_submitted()
        tracker.observe(RequestRecord(
            tenant="bench", submitted=t - 2.0, completed=t,
            ttft=0.1 + (i % 97) * 0.05, latency=1.0 + (i % 53) * 0.5,
            prompt_tokens=128, output_tokens=200 + (i % 11) * 10,
            ok=(i % 400) != 0))
        if t >= next_snapshot:
            last = tracker.snapshot()
            snapshots += 1
            next_snapshot += TRACKER_SNAPSHOT_EVERY
    return tracker, snapshots, last


@pytest.mark.parametrize("window", [60.0, 600.0, 3600.0],
                         ids=["w60s", "w600s", "w3600s"])
def test_hotpath_slo_tracker(benchmark, window):
    tracker, snapshots, last = benchmark.pedantic(
        _drive_tracker, args=(window,), rounds=1, iterations=1)
    report = tracker.report()
    benchmark.extra_info.update({
        "requests": TRACKER_REQUESTS,
        "window_s": window,
        "snapshots": snapshots,
        "window_samples": last.samples,
        "ttft_p95_s": round(report.ttft_percentiles["p95"], 3),
        "e2e_p99_s": round(report.e2e_percentiles["p99"], 3),
        "attainment": round(report.attainment, 4),
    })
    assert report.completed + report.errors == TRACKER_REQUESTS
    assert last.samples <= window / 0.2 + 1


def _drive_router():
    router = LlmRouter()
    for i in range(8):
        router.add_backend(f"node{i:02d}", 8000)
    served = [0] * 8
    backends = router.backends
    for i in range(ROUTER_REQUESTS):
        if i % 1000 == 999:
            # Health churn: quarantine one backend, readmit another --
            # every flip moves the pool epoch.
            victim = backends[i // 1000 % 8]
            if victim.healthy:
                victim.healthy = False
            else:
                victim.healthy = True
            router._epoch += 1
        for backend in router._pick():
            backend.served += 1
            served[backends.index(backend)] += 1
            break
    return served


def test_hotpath_router_pick(benchmark):
    served = benchmark.pedantic(_drive_router, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "requests": ROUTER_REQUESTS,
        "served": served,
    })
    assert sum(served) == ROUTER_REQUESTS
    assert min(served) > 0               # churned backends still rotate in


def _run_demo_cell():
    grid = demo_grid(seed=42)
    spec, _axes = grid.expand()[0]
    return run_cell(spec)


def test_hotpath_campaign_cell_10x(benchmark):
    """One 10x-volume demo cell, end to end (the >= 3x speedup gate
    rides on this wall time; the trace digest pins determinism)."""
    row = benchmark.pedantic(_run_demo_cell, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "requests": row["arrivals"],
        "cell": row["cell"],
        "completed": row["completed"],
        "errors": row["errors"],
        "attainment": row["attainment"],
        "goodput_rps": row["goodput_rps"],
        "peak_replicas": row["peak_replicas"],
        "trace_digest": row["trace_digest"],
    })
    assert row["errors"] == 0
    assert row["arrivals"] > 3000        # 10x the original demo volume
