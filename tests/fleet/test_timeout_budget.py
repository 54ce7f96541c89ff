"""``Timeout`` events built per completed request, on a fixed-seed cell.

A plain timed wait on the request path (a fabric hop, an arrival, a
stepped engine iteration) is a bare delay, ``yield delay``, which
builds no event, and so is the engine's coalesced decode jump, which a
nudge re-arms in place.  What is left are the waits that need one:
composed waits and callbacks.  The count covers every ``Timeout``
construction (``Callback`` included) of a whole ``run_cell`` of the
short (0.25 h) poisson_steady cell, and is deterministic, so the bound
does not depend on host speed.  A ``kernel.timeout`` put back on the request
path adds about one per request and fails here.
"""

from __future__ import annotations

from repro.campaign.runner import run_cell
from repro.simkernel import Timeout
from tests.fleet.test_event_budget import _poisson_steady

#: Measured 0.080 (1.65, measured 1.647, while the engine's jump waited
#: on a ``Sleep`` timer; 9.471 while every timed wait built a Timeout).
BUDGET = 0.10


def test_timeouts_per_completed_request(monkeypatch):
    built = 0
    init = Timeout.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Timeout, "__init__", counting_init)
    row = run_cell(_poisson_steady())
    assert row["errors"] == 0 and row["completed"] > 1500
    per_request = built / row["completed"]
    assert per_request <= BUDGET, (
        f"{per_request:.3f} Timeouts built per request > budget {BUDGET}")
