"""Kernel event budget per completed request, on fixed-seed cells.

Counts every ``SimKernel.step`` dispatch of a whole ``run_cell`` (fleet
bring-up included) and divides by the completed requests.  The counts
are deterministic, so the bounds do not depend on host speed.  The
cells are the short (0.25 h) poisson_steady and disagg_heavy variants
of the repo benchmark.  A change that adds heap entries to the request
path fails here; a change that removes some should lower the bound.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign.runner import demo_grid, disagg_grid, run_cell
from repro.simkernel import SimKernel

HORIZON = 0.25 * 3600.0
SEED = 1


def _poisson_steady():
    spec = demo_grid(SEED).expand()[0][0]   # hops, 2-3 replicas, 2 rps
    return dataclasses.replace(spec, horizon=HORIZON)


def _disagg_heavy():
    want = {"disagg": "True", "schedule.rate_rps": "2", "seed": str(SEED)}
    for spec, axes in disagg_grid(SEED).expand():
        if all(axes.get(k) == v for k, v in want.items()):
            return dataclasses.replace(spec, horizon=HORIZON)
    raise AssertionError(f"no disagg cell {want}")


@pytest.mark.parametrize("build, budget", [
    (_poisson_steady, 11.6),    # 16.11 before lean dispatch
    (_disagg_heavy, 18.8),      # 24.39 before lean dispatch
], ids=["poisson_steady", "disagg_heavy"])
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
