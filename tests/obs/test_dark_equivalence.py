"""Observability never changes the simulation.

``kernel.obs.disable()`` is the one observability switch, and
``run_cell(spec, observability=False)`` is that switch and nothing
else.  For every golden request-path cell the dark run must take the
default run's simulation path: the same trace digest and the same
scorecard row, except the ``obs`` block and the resilience fields only
telemetry produces (alert counts, alert detection delay and the
incident timeline).
"""

from __future__ import annotations

import pytest

from repro.campaign import run_cell
from tests.fleet.test_request_path_golden import SPECS

#: Resilience fields that read the alert evaluator, which a dark run
#: never starts.
TELEMETRY_KEYS = ("alerts_fired", "detection_delay_alert_s", "incidents")


def _sim(row: dict) -> dict:
    row = {k: v for k, v in row.items() if k != "obs"}
    if row["resilience"] is not None:
        row["resilience"] = {k: v for k, v in row["resilience"].items()
                             if k not in TELEMETRY_KEYS}
    return row


@pytest.mark.parametrize("cell", sorted(SPECS))
def test_dark_run_takes_the_same_path(cell):
    lit = run_cell(SPECS[cell])
    dark = run_cell(SPECS[cell], observability=False)
    assert lit["obs"] is not None and dark["obs"] is None
    assert dark["trace_digest"] == lit["trace_digest"]
    assert _sim(dark) == _sim(lit)
