"""Unit tests for the metrics registry and its text exposition."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, parse_exposition


@pytest.fixture
def registry():
    return MetricsRegistry()


def test_counter_counts_and_rejects_negative(registry):
    c = registry.counter("requests_total", "All requests",
                         labels=("outcome",))
    c.labels(outcome="ok").inc()
    c.labels(outcome="ok").inc(2)
    c.labels(outcome="error").inc()
    assert c.labels(outcome="ok").value == 3
    assert c.labels(outcome="error").value == 1
    with pytest.raises(ConfigurationError):
        c.labels(outcome="ok").inc(-1)


def test_gauge_set_inc_dec_and_callback(registry):
    g = registry.gauge("inflight").labels()
    g.set(5)
    g.inc()
    g.dec(2)
    assert g.value == 4.0
    state = {"n": 7}
    g.set_function(lambda: state["n"])
    assert g.value == 7.0
    state["n"] = 9
    assert g.value == 9.0          # read lazily, not cached
    g.set(1)                        # explicit set unbinds the callback
    assert g.value == 1.0


def test_histogram_count_sum_and_quantiles(registry):
    h = registry.histogram("latency_seconds").labels()
    for v in [0.1, 0.2, 0.3, 0.4, 10.0]:
        h.observe(v)
    samples = registry.sample_dict()
    assert samples["latency_seconds_count"] == 5
    assert samples["latency_seconds_sum"] == pytest.approx(11.0)
    q50 = samples['latency_seconds{quantile="0.5"}']
    q99 = samples['latency_seconds{quantile="0.99"}']
    assert 0.2 <= q50 <= 0.45
    assert q99 >= 5.0


def test_labels_schema_is_validated(registry):
    fam = registry.counter("hits_total", labels=("backend", "kind"))
    fam.labels(backend="b1", kind="hit").inc()
    with pytest.raises(ConfigurationError):
        fam.labels(backend="b1")                 # missing label
    with pytest.raises(ConfigurationError):
        fam.labels(backend="b1", kind="hit", extra="x")


def test_redeclaration_idempotent_but_shape_checked(registry):
    a = registry.counter("served_total", labels=("backend",))
    b = registry.counter("served_total", labels=("backend",))
    assert a is b                                # shared by redeployed replicas
    with pytest.raises(ConfigurationError):
        registry.gauge("served_total", labels=("backend",))
    with pytest.raises(ConfigurationError):
        registry.counter("served_total", labels=("host",))
    with pytest.raises(ConfigurationError):
        registry.counter("bad name!")


def test_exposition_round_trips_through_parser(registry):
    registry.counter("requests_total", "All requests",
                     labels=("outcome",)).labels(outcome="ok").inc(3)
    registry.gauge("usage", "KV usage").labels().set(0.25)
    h = registry.histogram("ttft_seconds", labels=("engine",))
    h.labels(engine="e0").observe(1.5)
    text = registry.exposition()
    assert "# HELP requests_total All requests" in text
    assert "# TYPE requests_total counter" in text
    assert "# TYPE ttft_seconds summary" in text
    parsed = parse_exposition(text)
    assert parsed["requests_total"][(("outcome", "ok"),)] == 3
    assert parsed["usage"][()] == 0.25
    assert parsed["ttft_seconds_count"][(("engine", "e0"),)] == 1
    key = (("engine", "e0"), ("quantile", "0.5"))
    assert parsed["ttft_seconds"][key] == pytest.approx(1.5, rel=0.25)


def test_parser_handles_escapes_and_commas_in_values():
    reg = MetricsRegistry()
    fam = reg.gauge("weird", labels=("path",))
    fam.labels(path='a,b"c\\d').set(1)
    parsed = parse_exposition(reg.exposition())
    assert parsed["weird"][(("path", 'a,b"c\\d'),)] == 1.0


def test_where_filter_slices_by_label(registry):
    fam = registry.gauge("engine_running", labels=("engine",))
    fam.labels(engine="e0").set(3)
    fam.labels(engine="e1").set(5)
    registry.gauge("router_outstanding").labels().set(2)
    text = registry.exposition(where={"engine": "e0"})
    parsed = parse_exposition(text)
    assert parsed["engine_running"] == {(("engine", "e0"),): 3.0}
    assert "router_outstanding" not in parsed


def test_prefix_filter_slices_by_family_name(registry):
    registry.gauge("router_outstanding").labels().set(2)
    registry.gauge("router_backends_healthy").labels().set(1)
    # "sessions_" sorts after "router_" — a slice by string-partition
    # would wrongly include it; the prefix filter must not.
    registry.gauge("sessions_started").labels().set(9)
    registry.gauge("engine_running").labels().set(4)
    parsed = parse_exposition(registry.exposition(prefix="router_"))
    assert set(parsed) == {"router_outstanding", "router_backends_healthy"}


def test_exposition_is_deterministic_under_insertion_order():
    def build(order):
        reg = MetricsRegistry()
        for name in order:
            reg.counter(name, labels=("k",))
        for name in order:
            reg._families[name].labels(k="z").inc()
            reg._families[name].labels(k="a").inc(2)
        return reg.exposition()

    assert build(["b_total", "a_total", "c_total"]) == \
        build(["c_total", "b_total", "a_total"])


def test_sample_dict_keys_render_label_sets(registry):
    registry.counter("hits_total", labels=("b",)).labels(b="x").inc()
    d = registry.sample_dict()
    assert d == {'hits_total{b="x"}': 1}
    registry.gauge("up").labels().set(1)
    assert registry.sample_dict()["up"] == 1     # unlabeled: the bare name


def test_empty_registry_renders_empty_string(registry):
    assert registry.exposition() == ""
    assert parse_exposition("") == {}


def _pinned_registry() -> MetricsRegistry:
    """Two-label counter (one value needs escaping), a callback gauge
    and a labelled histogram."""
    reg = MetricsRegistry()
    c = reg.counter("requests_total", "All requests",
                    labels=("path", "outcome"))
    c.labels(path='a,b"c\\d', outcome="ok").inc(3)
    c.labels(path="/v1", outcome="error").inc()
    reg.gauge("kv_usage", "KV usage", labels=("engine",)).labels(
        engine="e0").set_function(lambda: 0.25)
    h = reg.histogram("ttft_seconds", "Time to first token",
                      labels=("engine",))
    for v in (0.1, 0.2, 0.3, 1.5):
        h.labels(engine="e0").observe(v)
    h.labels(engine="e1").observe(2.0 / 3)
    return reg


_KV = """\
# HELP kv_usage KV usage
# TYPE kv_usage gauge
kv_usage{engine="e0"} 0.25
"""
_REQUESTS = """\
# HELP requests_total All requests
# TYPE requests_total counter
requests_total{path="/v1",outcome="error"} 1
requests_total{path="a,b\\"c\\\\d",outcome="ok"} 3
"""
_TTFT_HEAD = """\
# HELP ttft_seconds Time to first token
# TYPE ttft_seconds summary
"""
_TTFT_E0 = """\
ttft_seconds_count{engine="e0"} 4
ttft_seconds_sum{engine="e0"} 2.1
ttft_seconds{engine="e0",quantile="0.5"} 0.19977721121534245
ttft_seconds{engine="e0",quantile="0.95"} 1.5057867317354692
ttft_seconds{engine="e0",quantile="0.99"} 1.5057867317354692
"""
_TTFT_E1 = """\
ttft_seconds_count{engine="e1"} 1
ttft_seconds_sum{engine="e1"} 0.6666666666666666
ttft_seconds{engine="e1",quantile="0.5"} 0.6685846844275454
ttft_seconds{engine="e1",quantile="0.95"} 0.6685846844275454
ttft_seconds{engine="e1",quantile="0.99"} 0.6685846844275454
"""


def test_exposition_bytes_are_pinned():
    reg = _pinned_registry()
    assert reg.exposition() == \
        _KV + _REQUESTS + _TTFT_HEAD + _TTFT_E0 + _TTFT_E1
    assert reg.exposition(where={"engine": "e0"}) == \
        _KV + _TTFT_HEAD + _TTFT_E0
    assert reg.exposition(prefix="ttft_") == _TTFT_HEAD + _TTFT_E0 + _TTFT_E1


def test_sample_dict_is_pinned():
    got = _pinned_registry().sample_dict()
    want = {
        'kv_usage{engine="e0"}': 0.25,
        'requests_total{path="/v1",outcome="error"}': 1.0,
        'requests_total{path="a,b\\"c\\\\d",outcome="ok"}': 3.0,
        'ttft_seconds_count{engine="e0"}': 4.0,
        'ttft_seconds_sum{engine="e0"}': 2.1,
        'ttft_seconds{engine="e0",quantile="0.5"}': 0.199777211,
        'ttft_seconds{engine="e0",quantile="0.95"}': 1.505786732,
        'ttft_seconds{engine="e0",quantile="0.99"}': 1.505786732,
        'ttft_seconds_count{engine="e1"}': 1.0,
        'ttft_seconds_sum{engine="e1"}': 0.666666667,
        'ttft_seconds{engine="e1",quantile="0.5"}': 0.668584684,
        'ttft_seconds{engine="e1",quantile="0.95"}': 0.668584684,
        'ttft_seconds{engine="e1",quantile="0.99"}': 0.668584684,
    }
    # Key order too: the scraper's digest reads the dict in order.
    assert list(got.items()) == list(want.items())
    assert all(type(v) is float for v in got.values())
