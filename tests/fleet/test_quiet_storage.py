"""Quiet windows are stored per window, not per tick.

The SLO monitor, the scraper and the chaos probes each record into a
:class:`~repro.simkernel.ticks.TickLog`: a live tick is one entry (a
one-tick run, which has no steps) and a quiet window skipped by
quiet-play is one entry too (the loop's run of ticks).  On a pulse cell
(one burst a day, quiet between) the stored entries grow with the
number of quiet windows, while the ticks grow with simulated time; read
back through the log's expansion, each equals what a stepping
(``fast_forward=False``) run records.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import ChaosEventSpec, ScenarioSpec, ScheduleSpec
from repro.campaign.runner import play
from repro.chaos import ChaosOrchestrator
from repro.fleet import Fleet
from repro.fleet.fleet import SNAPSHOT_INTERVAL

DAY = 86400.0


def _spec(days: int, fast_forward: bool, **chaos) -> ScenarioSpec:
    return ScenarioSpec(
        name="quiet-storage", seed=1, horizon=days * DAY,
        fast_forward=fast_forward,
        schedule=ScheduleSpec(kind="pulse", rate_rps=0.05, period=DAY,
                              duty=250.0 / DAY), **chaos)


def _cell(days: int, fast_forward: bool):
    report, fleet, _ = play(_spec(days, fast_forward))
    return report, fleet.alerts.scraper


def _runs(log) -> list:
    """The quiet windows' entries: a live tick's run has no steps."""
    return [run for _, run in log if run.steps]


@pytest.mark.parametrize("days", [2, 20])
def test_quiet_storage_grows_with_windows_not_ticks(days):
    report, scraper = _cell(days, fast_forward=True)
    stepped, stepped_scraper = _cell(days, fast_forward=False)

    # One run entry per quiet window (one a day), a few live rows
    # around each burst, against 720 monitor ticks and 288 scrapes a
    # day.
    runs = _runs(report.monitor)
    assert len(runs) == days
    assert len(report.monitor) - len(runs) <= 10 * days
    scrape_runs = _runs(scraper._log)
    assert len(scrape_runs) == days
    assert len(scraper._log) - len(scrape_runs) <= 10 * days
    assert len(report.snapshots) >= days * DAY / SNAPSHOT_INTERVAL
    assert scraper.scrapes >= days * DAY / scraper.interval

    # Stepping stores every tick; both read back the same.
    assert len(stepped.monitor) == len(stepped.snapshots)
    assert report.snapshots == stepped.snapshots
    assert json.dumps(report.to_json(), sort_keys=True) == \
        json.dumps(stepped.to_json(), sort_keys=True)
    assert scraper.scrapes == stepped_scraper.scrapes == len(scraper.samples)
    assert [s.to_dict() for s in scraper.samples] == \
        [s.to_dict() for s in stepped_scraper.samples]
    assert scraper.to_dict() == stepped_scraper.to_dict()
    assert scraper.digest() == stepped_scraper.digest()


def _chaos_cell(days: int, fast_forward: bool):
    fleet = Fleet(_spec(days, fast_forward,
                        chaos=(ChaosEventSpec("node_crash", 900.0, 600.0),)))
    orchestrator = ChaosOrchestrator(fleet)
    kernel = fleet.kernel

    def cell(env):
        yield from fleet.start()
        return (yield from orchestrator.run())

    report = kernel.run(until=kernel.spawn(cell(kernel)))
    fleet.shutdown()
    return report, orchestrator.probes


@pytest.mark.parametrize("days", [2, 20])
def test_chaos_probes_grow_with_windows_not_ticks(days):
    report, probes = _chaos_cell(days, fast_forward=True)
    stepped, stepped_probes = _chaos_cell(days, fast_forward=False)

    # The crash and its repair split the first day into several quiet
    # windows; every later day is one, against 5,760 probe ticks a day.
    later = [(value, run) for value, run in probes if run.first >= DAY]
    runs = _runs(later)
    assert len(runs) == days - 1
    # Later days probe live through the burst and its drain only: at
    # most 900 s a day.
    interval = _spec(days, True).probe_interval
    assert len(later) - len(runs) <= 900.0 / interval * (days - 1)

    # Stepping stores every probe; both read back the same, and score
    # the crash the same.
    assert not _runs(stepped_probes)
    assert sum(len(run) for _, run in probes) == len(stepped_probes)
    assert list(probes.expand()) == list(stepped_probes.expand())
    assert report.resilience == stepped.resilience
