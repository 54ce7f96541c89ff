"""The router's in-process load readout and its registry gauges agree.

The autoscaler and the chaos probes read ``LlmRouter.outstanding`` and
``LlmRouter.healthy_backends`` directly; dashboards and alert rules read
the ``router_outstanding`` and ``router_backends_healthy`` gauges.  On a
short fleet day with a node crash, the two views must match at every
scrape instant, live and skipped alike.
"""

from __future__ import annotations

import dataclasses

from repro.chaos import ChaosOrchestrator, catalog
from repro.chaos.runner import case_spec
from repro.fleet import Fleet
from repro.obs.scrape import MetricsScraper


def test_router_properties_equal_gauges_at_every_scrape(monkeypatch):
    spec = dataclasses.replace(case_spec("node_crash", "hops"),
                               horizon=1800.0)
    fleet = Fleet(spec.build_site(), spec)
    kernel = fleet.kernel
    seen: list[tuple[float, int, int, float, float]] = []

    def check(scraper: MetricsScraper, t: float) -> None:
        router = fleet.router_app
        seen.append((t, router.outstanding, router.healthy_backends,
                     scraper.value_at("router_outstanding", t),
                     scraper.value_at("router_backends_healthy", t)))

    scrape_once = MetricsScraper.scrape_once
    scrape_idle = MetricsScraper.scrape_idle

    def live(self):
        sample = scrape_once(self)
        check(self, self.kernel.now)
        return sample

    def idle(self, ticks):
        scrape_idle(self, ticks)
        for t in ticks:
            check(self, t)

    monkeypatch.setattr(MetricsScraper, "scrape_once", live)
    monkeypatch.setattr(MetricsScraper, "scrape_idle", idle)
    orchestrator = ChaosOrchestrator(fleet)
    by_name = {s.name: s for s in catalog()}
    plan = [(e.inject_at, by_name[e.scenario], e.fault_duration)
            for e in spec.chaos]

    def day(env):
        yield from fleet.start(initial_replicas=spec.initial_replicas)
        report, _windows = yield from orchestrator.run_gameday(
            plan, spec.schedule.build(), spec.horizon)
        return report

    report = kernel.run(until=kernel.spawn(day(kernel)))
    fleet.shutdown()
    assert len(seen) == report.obs["scrape"]["scrapes"] > 10
    for t, outstanding, healthy, g_outstanding, g_healthy in seen:
        assert (outstanding, healthy) == (g_outstanding, g_healthy), t
    # The crash is visible in both views: a backend left the healthy
    # pool, and the day carried load.
    assert min(row[2] for row in seen) < max(row[2] for row in seen)
    assert any(row[1] > 0 for row in seen)
