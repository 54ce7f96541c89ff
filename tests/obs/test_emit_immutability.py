"""No emitter changes a trace ``fields`` dict after handing it over.

The tracer renders a record's digest line up to one young list after
``emit``, so its digest is only equal to the whole-run render it
replaced if the dicts never change once emitted.  This test renders
every record at emit time, keeps the dict, and renders it again once the
run is over: the two renders must be equal, on the repo benchmark's four
workload shapes at short horizons, one chaos matrix cell and one
sessions cell.  (Spans need no such check: the span store copies each
value into a typed column when it is written.)
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign import play
from repro.campaign.catalogue import demo_grid, disagg_grid, sessions_grid
from repro.campaign.spec import ChaosEventSpec, ScenarioSpec, ScheduleSpec
from repro.chaos.runner import case_spec
from repro.simkernel.tracing import Tracer, _encode

DAY = 86400.0


def _cell(grid, **axes):
    for spec, cell_axes in grid.expand():
        if all(cell_axes.get(k) == v for k, v in axes.items()):
            return spec
    raise LookupError(axes)


def _specs() -> dict[str, ScenarioSpec]:
    sessions = _cell(sessions_grid(1), **{
        "sessions.mean_turns": "6", "sessions.think_mean_s": "10",
        "sessions.prefix_caching": "True"})
    return {
        "poisson_steady": dataclasses.replace(
            demo_grid(1).expand()[0][0], horizon=600.0),
        "pulse_idle": ScenarioSpec(
            name="pulse-idle", seed=1, horizon=2 * DAY,
            schedule=ScheduleSpec(kind="pulse", rate_rps=1.0, period=DAY,
                                  duty=250.0 / DAY)),
        "sessions_crash": dataclasses.replace(
            sessions, horizon=900.0,
            chaos=(ChaosEventSpec("node_crash", inject_at=450.0,
                                  fault_duration=300.0),)),
        "disagg_heavy": dataclasses.replace(
            _cell(disagg_grid(1), **{"disagg": "True",
                                     "schedule.rate_rps": "2",
                                     "seed": "1"}),
            horizon=600.0),
        "chaos_partition": dataclasses.replace(
            case_spec("network_partition", seed=1), horizon=1800.0,
            chaos=(ChaosEventSpec("network_partition", inject_at=600.0,
                                  fault_duration=300.0),)),
        "sessions": dataclasses.replace(sessions, horizon=900.0),
    }


class _Witness:
    """Emit-time renders of every record, with their dicts."""

    def __init__(self) -> None:
        self.records: list[tuple[str, tuple]] = []

    def record(self, row: tuple) -> None:
        self.records.append((_encode(row), row))

    def changed(self) -> list[str]:
        return [line for line, row in self.records if _encode(row) != line]


@pytest.fixture
def witness(monkeypatch):
    seen = _Witness()
    trace_emit = Tracer.emit

    def emit(self, kind, **fields):
        seen.record((self.kernel.now, kind, fields))
        trace_emit(self, kind, **fields)

    monkeypatch.setattr(Tracer, "emit", emit)
    return seen


@pytest.mark.parametrize("name", sorted(_specs()))
def test_no_emitter_mutates_after_emit(name, witness):
    report, fleet, _digest = play(_specs()[name])
    assert report.arrivals > 0
    assert witness.records
    assert fleet.kernel.obs.spans.span_count > 0
    assert witness.changed() == []
