"""Fleet fast-forward: the 100k-request demo cell, jump-on vs jump-off.

The headline bench of the fleet-level fast-forward: a pulse workload
(250 s burst at 1 rps per simulated day, ~400 days, ~100k requests)
whose dead air is exactly what quiet-tick fast-play collapses —
health passes, autoscaler ticks, and monitor rows all fast-played
between bursts.  Both arms run the *same* spec with only ``fast_forward``
flipped, and the gate pins:

* **bit-identity** — the kernel trace digests of the two arms must be
  byte-equal (asserted here) and byte-stable across commits (the
  ``trace_digest`` in ``extra_info``, enforced by check_regression);
* **speedup** — the jump-off arm must take >= ``MIN_SPEEDUP`` x the
  jump-on arm's wall clock, asserted in-bench (wall clock is
  machine-dependent, so the ratio never enters ``extra_info``).  Both
  arms take the one in-process request path and the one traffic
  generator, so the ratio measures quiet-tick fast-play alone (3.6x
  and 3.8x measured on a 2-vCPU Xeon).

GC is disabled around both arms: a 400-day tape accumulates millions
of sample/snapshot objects and generational collections otherwise
drown both arms in identical, uninformative overhead.
"""

from __future__ import annotations

import dataclasses
import gc
import time

from repro.campaign.catalogue import ff_100k
from repro.campaign.runner import run_cell
from repro.campaign.spec import ScenarioSpec

MIN_SPEEDUP = 3.5


def _spec(fast_forward: bool) -> ScenarioSpec:
    return dataclasses.replace(ff_100k(seed=1234), fast_forward=fast_forward)


def test_bench_fleet_ff_100k_cell(benchmark):
    walls = {}
    rows = {}

    def both_arms():
        gc.collect()
        gc.disable()
        try:
            for arm in (True, False):
                start = time.perf_counter()
                rows[arm] = run_cell(_spec(arm), observability=False)
                walls[arm] = time.perf_counter() - start
                gc.collect()
        finally:
            gc.enable()

    benchmark.pedantic(both_arms, rounds=1, iterations=1)

    on, off = rows[True], rows[False]
    assert on["errors"] == 0 and off["errors"] == 0
    assert on["completed"] == on["arrivals"]
    # The whole point: jump-on replays the exact same simulation.
    assert on["trace_digest"] == off["trace_digest"], \
        "fast-forward diverged from stepping"
    speedup = walls[False] / walls[True]
    assert speedup >= MIN_SPEEDUP, (
        f"fleet fast-forward speedup {speedup:.2f}x under the "
        f"{MIN_SPEEDUP:.0f}x gate (on={walls[True]:.1f}s "
        f"off={walls[False]:.1f}s)")

    benchmark.extra_info.update({
        "arrivals": on["arrivals"],
        "completed": on["completed"],
        "errors": on["errors"],
        "attainment": on["attainment"],
        "peak_replicas": on["peak_replicas"],
        "scale_events": on["scale_events"],
        "trace_digest": on["trace_digest"],
    })
