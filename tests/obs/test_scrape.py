"""Unit tests for the simulated scrape pipeline."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.scrape import MetricsScraper
from repro.simkernel import SimKernel


def _setup(interval=60.0):
    kernel = SimKernel(seed=1)
    reg = MetricsRegistry()
    scraper = MetricsScraper(kernel, reg, interval=interval)
    return kernel, reg, scraper


def test_interval_must_be_positive():
    kernel = SimKernel(seed=1)
    with pytest.raises(ValueError):
        MetricsScraper(kernel, MetricsRegistry(), interval=0.0)
    with pytest.raises(ValueError):
        MetricsScraper(kernel, MetricsRegistry(), interval=-5.0)


def test_scrape_once_stores_only_changed_series():
    kernel, reg, scraper = _setup()
    c = reg.counter("requests_total").labels()
    g = reg.gauge("inflight").labels()
    c.inc(3)
    g.set(2)
    first = scraper.scrape_once()
    assert first.values == {"requests_total": 3, "inflight": 2}
    # Nothing changed: the delta is empty (but the scrape is recorded).
    second = scraper.scrape_once()
    assert second.values == {}
    c.inc()
    third = scraper.scrape_once()
    assert third.values == {"requests_total": 4}   # only the change
    assert len(scraper.samples) == 3


def test_fold_at_scrape_times_and_series_reconstruct():
    kernel, reg, scraper = _setup()
    c = reg.counter("requests_total").labels()
    for n in [1, 0, 2]:
        c.inc(n)
        kernel.run(until=kernel.now + 10.0)
        scraper.scrape_once()
    assert [scraper.fold(at=s.time) for s in scraper.samples] == [
        {"requests_total": 1}, {"requests_total": 1}, {"requests_total": 3}]
    assert scraper.series("requests_total") == [(10.0, 1.0), (30.0, 3.0)]


def test_value_at_reads_the_last_change_at_or_before_t():
    kernel, reg, scraper = _setup()
    c = reg.counter("requests_total").labels()
    for n in [1, 0, 2]:
        c.inc(n)
        kernel.run(until=kernel.now + 10.0)
        scraper.scrape_once()
    # Changes landed at t=10 (1) and t=30 (3); t=20 scraped no delta.
    assert scraper.value_at("requests_total", 5.0) is None
    assert scraper.value_at("requests_total", 5.0, default=0.0) == 0.0
    assert scraper.value_at("requests_total", 10.0) == 1.0
    assert scraper.value_at("requests_total", 29.9) == 1.0
    assert scraper.value_at("requests_total", 30.0) == 3.0
    assert scraper.value_at("requests_total", 1e9) == 3.0
    assert scraper.value_at("no_such_series", 30.0, default=7.0) == 7.0


def test_last_change_tracks_changes_not_scrapes():
    kernel, reg, scraper = _setup()
    c = reg.counter("requests_total").labels()
    for n in [1, 0, 2]:
        c.inc(n)
        kernel.run(until=kernel.now + 10.0)
        scraper.scrape_once()
    assert scraper.last_change("requests_total", 5.0) is None
    assert scraper.last_change("requests_total", 10.0) == 10.0
    # The t=20 scrape recorded no delta: the series did not "change".
    assert scraper.last_change("requests_total", 25.0) == 10.0
    assert scraper.last_change("requests_total", 40.0) == 30.0
    assert scraper.last_change("absent", 40.0) is None


def test_fold_reconstructs_state_as_of_a_time():
    kernel, reg, scraper = _setup()
    c = reg.counter("requests_total").labels()
    g = reg.gauge("inflight").labels()
    for n in [1, 0, 2]:
        c.inc(n)
        g.set(n)
        kernel.run(until=kernel.now + 10.0)
        scraper.scrape_once()
    assert scraper.fold(5.0) == {}
    assert scraper.fold(10.0) == {"requests_total": 1, "inflight": 1}
    assert scraper.fold(20.0) == {"requests_total": 1, "inflight": 0}
    assert scraper.fold() == {"requests_total": 3, "inflight": 2}
    assert scraper.fold() == scraper.fold(at=scraper.samples[-1].time)


def test_digest_is_deterministic_and_change_sensitive():
    def run(extra=0):
        kernel, reg, scraper = _setup()
        c = reg.counter("requests_total").labels()
        for i in range(3):
            c.inc(1 + (extra if i == 2 else 0))
            kernel.run(until=kernel.now + 60.0)
            scraper.scrape_once()
        return scraper.digest()

    assert run() == run()
    assert run() != run(extra=1)


def test_to_dict_shape():
    kernel, reg, scraper = _setup(interval=30.0)
    reg.counter("requests_total").labels().inc()
    scraper.scrape_once()
    d = scraper.to_dict()
    assert d["interval"] == 30.0
    assert d["scrapes"] == 1
    assert d["samples"] == [{"time": 0.0,
                             "values": {"requests_total": 1}}]
