"""Quiet windows are stored per window, not per tick.

Quiet-play stores a skipped run of SLO monitor rows as one entry of
:attr:`FleetReport.monitor` and a skipped run of scrapes as one entry of
the scraper's log.  On a pulse cell (one burst a day, quiet between) the
stored entries grow with the number of quiet windows, while the ticks
grow with simulated time; read back through
:attr:`FleetReport.snapshots` and :attr:`MetricsScraper.samples`, both
expand to exactly what a stepping (``fast_forward=False``) run records.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import ScenarioSpec, ScheduleSpec
from repro.campaign.runner import play
from repro.fleet.fleet import SNAPSHOT_INTERVAL
from repro.fleet.governor import TickRun

DAY = 86400.0


def _cell(days: int, fast_forward: bool):
    spec = ScenarioSpec(
        name="quiet-storage", seed=1, horizon=days * DAY,
        fast_forward=fast_forward,
        schedule=ScheduleSpec(kind="pulse", rate_rps=0.05, period=DAY,
                              duty=250.0 / DAY))
    report, fleet, _ = play(spec)
    return report, fleet.alerts.scraper


@pytest.mark.parametrize("days", [2, 20])
def test_quiet_storage_grows_with_windows_not_ticks(days):
    report, scraper = _cell(days, fast_forward=True)
    stepped, stepped_scraper = _cell(days, fast_forward=False)

    # One run entry per quiet window (one a day), a few live rows
    # around each burst, against 720 monitor ticks and 288 scrapes a
    # day.
    runs = [e for e in report.monitor if isinstance(e, tuple)]
    assert len(runs) == days
    assert len(report.monitor) - len(runs) <= 10 * days
    scrape_runs = [e for e in scraper._log if isinstance(e, TickRun)]
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
