"""A scheduler policy whose rules degenerate to FCFS leaves the fleet's
scorecard row unchanged.

With every request in priority class 0, the priority scheduler admits
in arrival order and never evicts, so its jump plan is FCFS's too: the
whole ``run_cell`` row (trace, metric, span, scrape and alert digests,
attribution) must equal the FCFS row byte for byte.  Only the spec's own
identity (``spec_hash``, ``scheduler_policy``) may differ.
"""

from __future__ import annotations

import json

from repro.campaign.runner import run_cell
from tests.fleet.test_event_budget import _poisson_steady


def test_single_class_priority_row_equals_fcfs():
    fcfs, priority = (run_cell(_poisson_steady(policy))
                      for policy in ("fcfs", "priority"))
    assert priority["scheduler_policy"] == "priority"
    assert fcfs["completed"] > 1500
    for row in (fcfs, priority):
        del row["spec_hash"], row["scheduler_policy"]
    assert json.dumps(priority, sort_keys=True) \
        == json.dumps(fcfs, sort_keys=True)
