"""Python calls per completed request, on the benchmark's short cells.

Runs ``run_cell`` of each short (seed 1) cell of ``perfbench/child.py``
under ``cProfile`` in a fresh interpreter, so no cache warmed by an
earlier test moves the count, and divides ``total_calls`` by the
completed requests.  The
count is exact and does not depend on host speed or hash seed, but it
does on the interpreter, so the ceiling holds on CPython 3.11 only.  A
change that adds Python work per request fails here; a change that
removes some should lower the ceiling.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

_PROFILE = """
import cProfile, json, sys
from perfbench import child
from repro.campaign.runner import run_cell
spec = child.build_spec(sys.argv[1], 1, short=True)
profile = cProfile.Profile()
profile.enable()
row = run_cell(spec)
profile.disable()
# Every code object's own count: pstats.Stats keys functions by (file,
# line, name), so the __init__s that dataclasses generate from strings
# collide there, and which one survives depends on the hash seed.
print(json.dumps({"calls": sum(e.callcount for e in profile.getstats()),
                  "completed": row["completed"]}))
"""


#: workload -> (calls-per-request ceiling, completed-request floor),
#: measured on CPython 3.11.7 and rounded up to the next 0.05.
BUDGETS = {
    # 291.25 over 1,861 requests.
    "poisson_steady": (291.3, 1500),
    # 331.86 over 521 requests: two simulated days of one 250 s pulse
    # each, so the idle days' scrapes and alert evaluations weigh on
    # every request.
    "pulse_idle": (331.9, 500),
    # 340.45 over 2,520 requests.
    "sessions_crash": (340.45, 1500),
    # 530.57 over 1,861 requests: two router legs and a KV handoff each.
    "disagg_heavy": (530.6, 1500),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="call counts differ across CPython versions")
@pytest.mark.parametrize("workload", sorted(BUDGETS))
def test_calls_per_completed_request(workload):
    ceiling, floor = BUDGETS[workload]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (os.path.join(ROOT, "src"), ROOT)))
    out = subprocess.run(
        [sys.executable, "-c", _PROFILE, workload], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["completed"] > floor
    per_request = result["calls"] / result["completed"]
    assert per_request <= ceiling, (
        f"{per_request:.2f} Python calls per request > ceiling {ceiling}")
