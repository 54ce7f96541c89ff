"""Live heap against horizon on the 100k pulse cell's shape, dark and on.

Quiet-play keeps each quiet window as one record whatever its length
(a :class:`~repro.simkernel.ticks.TickRun` per loop), and a dark run
folds each request into fixed-size aggregates, so the heap a finished
run holds does not grow with the simulated days between bursts.  Runs
the ``ff-100k`` scenario at 5 and 20 days with observability off, each
in a fresh interpreter so neither pays the other's imports, and
compares the tracemalloc live heap after ``gc.collect()`` with the
report and fleet still alive.  Measured on CPython 3.11.7: 1.14 MB at
5 days and 1.12 MB at 20; before windows were stored as runs, the
governor's per-tick lists made it 1.26 and 1.59 MB.

The chaos arm adds one ``node_crash`` on the first day, so the chaos
probes run every 15 s for the whole horizon.  Measured the same way:
1.33 MB at 5 days and 1.40 MB at 20 (the growth is the live probes of
each day's burst); when the probes kept one record per tick it was
4.99 and 16.12 MB.

The observability arm runs the same cell with observability on.  The
span store keeps every request's five spans (1,266 a day), so the heap
grows by each day's burst: measured the same way, 1.56 MB at 5 days and
2.55 MB at 20, 66 KB per simulated day (48.4 bytes of columns per span;
70 KB a day and 51.6 bytes per span when attributes were kept as
compressed text plus a list of names).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

_MEASURE = """
import dataclasses, gc, json, sys, tracemalloc
from repro.campaign import ChaosEventSpec
from repro.campaign.catalogue import ff_100k
from repro.campaign.runner import play
chaos = tuple(ChaosEventSpec(name, 900.0, 600.0) for name in sys.argv[3:])
spec = dataclasses.replace(ff_100k(), horizon=float(sys.argv[1]) * 86400.0,
                           chaos=chaos)
tracemalloc.start()
report, fleet, _ = play(spec, observability=sys.argv[2] == "on")
gc.collect()
print(json.dumps({"live": tracemalloc.get_traced_memory()[0],
                  "arrivals": report.arrivals,
                  "spans": fleet.kernel.obs.spans.span_count}))
"""

#: live-heap growth allowed from 5 to 20 days, in bytes
GROWTH = 100_000
#: live-heap growth allowed per simulated day with observability on
OBS_GROWTH_PER_DAY = 75_000


def _live(days: int, obs: str, *faults: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE, str(days), obs, *faults], cwd=ROOT,
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _assert_flat(*faults: str) -> None:
    """Live-heap growth from 5 to 20 days, each fault injected on the
    first day, is within :data:`GROWTH`."""
    five, twenty = _live(5, "dark", *faults), _live(20, "dark", *faults)
    assert twenty["arrivals"] > 3.5 * five["arrivals"]
    growth = twenty["live"] - five["live"]
    assert growth <= GROWTH, (
        f"live heap grew {growth / 1e6:.2f} MB from 5 to 20 days")


def test_live_heap_does_not_grow_with_quiet_days():
    _assert_flat()


def test_live_heap_does_not_grow_with_quiet_days_under_chaos():
    _assert_flat("node_crash")


def test_observability_heap_grows_by_its_spans_per_day():
    """With observability on the span store keeps every request's five
    spans, so the heap grows with each day's burst: bounded per day."""
    five, twenty = _live(5, "on"), _live(20, "on")
    assert twenty["spans"] == 5 * twenty["arrivals"]
    per_day = (twenty["live"] - five["live"]) / 15
    assert per_day <= OBS_GROWTH_PER_DAY, (
        f"live heap grew {per_day / 1e3:.1f} KB per simulated day")
