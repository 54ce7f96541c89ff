"""No emitter changes a trace ``fields`` dict or a span ``attrs`` dict
after handing it over.

The tracer renders a record's digest line up to one young list after
``emit``, and the span store renders ``name|attrs!r`` at its next
flush and then drops the dict.  Both digests are therefore only equal
to the whole-run renders they replaced if the dicts never change once
emitted.  This test renders every record and span at emit time, keeps
the dict, and renders it again once the run is over: the two renders
must be equal, on the repo benchmark's four workload shapes at short
horizons, one chaos matrix cell and one sessions cell.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign import play
from repro.campaign.catalogue import demo_grid, disagg_grid, sessions_grid
from repro.campaign.spec import ChaosEventSpec, ScenarioSpec, ScheduleSpec
from repro.chaos.runner import case_spec
from repro.obs.spans import SpanRecorder
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
    """Emit-time renders of every record and span, with their dicts."""

    def __init__(self) -> None:
        self.records: list[tuple[str, tuple]] = []
        self.spans: list[tuple[str, dict]] = []

    def record(self, row: tuple) -> None:
        self.records.append((_encode(row), row))

    def span(self, attrs: dict | None) -> None:
        if attrs:
            self.spans.append((repr(attrs), attrs))

    def changed(self) -> list[str]:
        return ([line for line, row in self.records
                 if _encode(row) != line]
                + [text for text, attrs in self.spans
                   if repr(attrs) != text])


@pytest.fixture
def witness(monkeypatch):
    seen = _Witness()
    trace_emit = Tracer.emit
    span_emit, span_many = SpanRecorder.emit, SpanRecorder.emit_many

    def emit(self, kind, **fields):
        seen.record((self.kernel.now, kind, fields))
        trace_emit(self, kind, **fields)

    def emit_span(self, name, trace_id, parent_id, start, end, attrs=None,
                  span_id=None):
        if self.enabled and trace_id:
            seen.span(attrs)
        span_emit(self, name, trace_id, parent_id, start, end, attrs,
                  span_id)

    def emit_many(self, trace_id, parent_id, phases):
        phases = list(phases)
        if self.enabled and trace_id:
            for _name, _start, _end, attrs in phases:
                seen.span(attrs)
        span_many(self, trace_id, parent_id, phases)

    monkeypatch.setattr(Tracer, "emit", emit)
    monkeypatch.setattr(SpanRecorder, "emit", emit_span)
    monkeypatch.setattr(SpanRecorder, "emit_many", emit_many)
    return seen


@pytest.mark.parametrize("name", sorted(_specs()))
def test_no_emitter_mutates_after_emit(name, witness):
    report, fleet, _digest = play(_specs()[name])
    assert report.arrivals > 0
    assert witness.records and witness.spans
    assert fleet.kernel.obs.spans.span_count > 0
    assert witness.changed() == []
