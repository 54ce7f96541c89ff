"""Kernel event budget per completed request, on fixed-seed cells.

Counts every ``SimKernel.step`` dispatch of a whole ``run_cell`` (fleet
bring-up included) and divides by the completed requests.  The counts
are deterministic, so the bounds do not depend on host speed.  The
cells are the short (0.25 h) poisson_steady and disagg_heavy variants
of the repo benchmark, and poisson_steady under the priority and
chunked scheduler policies, which take the same coalesced engine loop.
A change that adds heap entries to the request path fails here; a
change that removes some should lower the bound.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.campaign.runner import demo_grid, disagg_grid, run_cell
from repro.simkernel import SimKernel

HORIZON = 0.25 * 3600.0
SEED = 1


def _poisson_steady(policy="fcfs"):
    spec = demo_grid(SEED).expand()[0][0]   # hops, 2-3 replicas, 2 rps
    return dataclasses.replace(spec, horizon=HORIZON, scheduler_policy=policy)


def _disagg_heavy():
    want = {"disagg": "True", "schedule.rate_rps": "2", "seed": str(SEED)}
    for spec, axes in disagg_grid(SEED).expand():
        if all(axes.get(k) == v for k, v in want.items()):
            return dataclasses.replace(spec, horizon=HORIZON)
    raise AssertionError(f"no disagg cell {want}")


# Measured 10.915 / 18.047 / 10.915 / 11.037 with re-armed engine jumps.
@pytest.mark.parametrize("build, budget", [
    # 11.6 (11.544) on a Sleep timer; 16.11 before lean dispatch
    (_poisson_steady, 11.0),
    # 18.8 (18.753) on a Sleep timer; 24.39 before lean dispatch
    (_disagg_heavy, 18.1),
    # 11.6 and 11.7 on a Sleep timer; 118.4 each while only FCFS
    # coalesced engine iterations
    (functools.partial(_poisson_steady, "priority"), 11.0),
    (functools.partial(_poisson_steady, "chunked"), 11.1),
], ids=["poisson_steady", "disagg_heavy", "poisson_steady_priority",
        "poisson_steady_chunked"])
def test_kernel_events_per_completed_request(monkeypatch, build, budget):
    dispatched = 0
    step = SimKernel.step

    def counting_step(self):
        nonlocal dispatched
        dispatched += 1
        step(self)

    monkeypatch.setattr(SimKernel, "step", counting_step)
    row = run_cell(build())
    assert row["errors"] == 0 and row["completed"] > 1500
    per_request = dispatched / row["completed"]
    assert per_request <= budget, (
        f"{per_request:.3f} kernel events per request > budget {budget}")
