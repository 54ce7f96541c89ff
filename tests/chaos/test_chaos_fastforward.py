"""Quiet-play under chaos: fast-forward on equals stepping, byte for byte.

Chaos runs use the one fast-forward governor like every other run: the
supervisor sweep and the probe loop wait through
``FleetFastForward.next_tick``, and a fault ends quiet-play only through
the state the quiet predicate reads (an unresolved or partitioned
backend, a crashed engine, a supervisor deficit).  Stepping
(``fast_forward=False``) is the oracle.  Each generated cell compares
five outputs between the two arms: the serialized ``FleetReport``, the
kernel trace digest, the probe timeline, the supervisor's repair log and
the autoscaler digest.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import ChaosEventSpec
from repro.campaign.spec import ScheduleSpec
from repro.chaos import ChaosOrchestrator, SupervisorConfig, catalog
from repro.chaos.runner import ChaosRunConfig, PLATFORM_FLEETS, case_spec
from repro.fleet import AutoscalerConfig

HORIZON = 2 * 3600.0
#: Pulse traffic leaves quiet gaps long enough to skip ticks in.
PULSE = ScheduleSpec(kind="pulse", rate_rps=0.5, period=1800.0, duty=0.2)


def _spec(kind: str, events) -> object:
    return dataclasses.replace(
        case_spec(ChaosRunConfig(), PLATFORM_FLEETS[kind]),
        schedule=PULSE, horizon=HORIZON,
        chaos=tuple(ChaosEventSpec(*event) for event in events))


def _run(spec, fast_forward: bool) -> tuple[dict, int]:
    """Play ``spec`` as a game day; returns the five outputs and the
    number of ticks the governor skipped."""
    spec = dataclasses.replace(spec, fast_forward=fast_forward)
    fleet = spec.build_fleet(spec.build_site())
    kernel = fleet.kernel
    orchestrator = ChaosOrchestrator(
        fleet,
        supervisor=SupervisorConfig(interval=spec.supervisor_interval),
        probe_interval=spec.probe_interval)
    by_name = {s.name: s for s in catalog()}
    plan = [(e.inject_at, by_name[e.scenario], e.fault_duration)
            for e in spec.chaos]
    skipped = [0]
    next_tick = fleet.ff.next_tick

    def counted(*args, **kwargs):
        ticks, tick = next_tick(*args, **kwargs)
        skipped[0] += len(ticks)
        return ticks, tick

    fleet.ff.next_tick = counted

    def cell(env):
        yield from fleet.start(initial_replicas=spec.initial_replicas)
        report, _windows = yield from orchestrator.run_gameday(
            plan, spec.schedule.build(), spec.horizon)
        return report

    report = kernel.run(until=kernel.spawn(cell(kernel)))
    outputs = {
        "report": report.to_json(),
        "trace": kernel.trace.digest(),
        "probes": [(p.time, p.infra_ok, p.slo_ok)
                   for p in orchestrator.probes],
        "supervisor": [e.row() for e in orchestrator.supervisor.events],
        "autoscaler": fleet.autoscaler.digest(),
    }
    fleet.shutdown()
    return outputs, skipped[0]


def _assert_like_stepping(spec) -> int:
    on, skipped = _run(spec, fast_forward=True)
    off, stepped = _run(spec, fast_forward=False)
    assert stepped == 0
    for key in on:
        assert on[key] == off[key], f"fast-forward diverged on {key!r}"
    return skipped


@st.composite
def chaos_events(draw):
    """A platform kind and one or two faults from its catalog."""
    kind = draw(st.sampled_from(sorted(PLATFORM_FLEETS)))
    names = [s.name for s in catalog(kind)]
    # Multiples of every loop interval put the injection on the same
    # float instant as the loops' ticks: the tie-order hazard.
    inject_at = st.one_of(st.sampled_from((900.0, 1800.0, 3600.0)),
                          st.integers(60, 6600).map(float))
    duration = st.integers(60, 1200).map(float)
    events = draw(st.lists(
        st.tuples(st.sampled_from(names), inject_at, duration),
        min_size=1, max_size=2, unique_by=lambda e: e[1]))
    return kind, sorted(events, key=lambda e: e[1])


@given(cell=chaos_events())
@settings(max_examples=10, deadline=None)
def test_chaos_cells_bit_identical_vs_stepping(cell):
    kind, events = cell
    _assert_like_stepping(_spec(kind, events))


def test_node_crash_ties_run_in_stepping_order():
    """The injection, the telemetry scrape, the supervisor sweep and the
    probe share one float instant.  Stepping runs them inject, scrape,
    sweep, probe; the sweep discards the dead replica synchronously, so
    any other order moves the capacity alert and the detection delay."""
    assert _assert_like_stepping(
        _spec("hpc", [("node_crash", 900.0, 600.0)])) > 0


def test_network_partition_ends_quiet_play():
    """A partitioned backend's service stays bound, so only the
    partition check keeps the health passes live through the fault."""
    assert _assert_like_stepping(
        _spec("hpc", [("network_partition", 900.0, 600.0)])) > 0


def test_supervisor_deficit_ends_quiet_play():
    """A registry outage fails the replacement, leaving a deficit while
    the surviving replica sits idle above the autoscaler's floor: only
    the deficit check keeps the supervisor's redeploy sweeps live."""
    spec = dataclasses.replace(
        _spec("hpc", [("registry_outage", 60.0, 1200.0)]),
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4,
                                    target_outstanding=8.0))
    assert _assert_like_stepping(spec) > 0
