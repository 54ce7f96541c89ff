"""Unit tests for the shared streaming quantile estimator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.obs.stats import LogHistogram


def test_empty_histogram_is_all_zero():
    hist = LogHistogram()
    assert len(hist) == 0
    assert hist.quantile(50) == 0.0
    assert hist.quantiles((50.0, 95.0, 99.0)) == [0.0, 0.0, 0.0]
    assert hist.percentile_dict() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_validation():
    with pytest.raises(ConfigurationError):
        LogHistogram(min_value=0.0)
    with pytest.raises(ConfigurationError):
        LogHistogram(min_value=2.0, max_value=1.0)
    with pytest.raises(ConfigurationError):
        LogHistogram(growth=1.0)


def test_add_remove_round_trip():
    hist = LogHistogram()
    for v in (0.5, 1.0, 2.0, 100.0):
        hist.add(v)
    assert len(hist) == 4
    for v in (0.5, 1.0, 2.0, 100.0):
        hist.remove(v)
    assert len(hist) == 0
    assert hist.quantile(99) == 0.0


def test_remove_without_add_raises():
    hist = LogHistogram()
    hist.add(1.0)
    with pytest.raises(ConfigurationError):
        hist.remove(100.0)


def test_underflow_and_overflow_representatives():
    hist = LogHistogram(min_value=1e-3, max_value=1e5)
    hist.add(0.0)                      # below resolution -> reported as 0
    assert hist.quantile(50) == 0.0
    hist.remove(0.0)
    hist.add(1e9)                      # above range -> clamped to max
    assert hist.quantile(50) == 1e5


def test_quantile_within_documented_bound():
    hist = LogHistogram()
    values = [0.01 * (i + 1) for i in range(500)]       # 0.01 .. 5.0
    for v in values:
        hist.add(v)
    bound = hist.rel_error_bound()
    for q in (1.0, 25.0, 50.0, 95.0, 99.0, 100.0):
        exact = values[max(0, math.ceil(q / 100 * len(values)) - 1)]
        assert hist.quantile(q) == pytest.approx(exact, rel=bound)


def test_quantiles_accept_unordered_requests():
    hist = LogHistogram()
    for v in (1.0, 2.0, 3.0, 4.0):
        hist.add(v)
    p50, p10, p99 = hist.quantiles((50.0, 10.0, 99.0))
    assert p10 <= p50 <= p99
    assert p50 == hist.quantile(50.0)
    assert p10 == hist.quantile(10.0)
    assert p99 == hist.quantile(99.0)


@given(values=st.lists(st.floats(min_value=1e-3, max_value=1e4,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=200),
       q=st.floats(min_value=1.0, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_quantile_tracks_nearest_rank(values, q):
    """Any quantile is within the relative-error bound of the exact
    nearest-rank order statistic — the estimator's contract."""
    hist = LogHistogram()
    for v in values:
        hist.add(v)
    exact = sorted(values)[max(0, math.ceil(q / 100 * len(values)) - 1)]
    assert hist.quantile(q) == pytest.approx(exact,
                                             rel=hist.rel_error_bound())


@given(values=st.lists(st.floats(min_value=1e-3, max_value=1e4,
                                 allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=100))
@settings(max_examples=100, deadline=None)
def test_removal_equals_never_added(values):
    """add-then-remove leaves the histogram exactly as if the removed
    values had never been observed (windowed-deletion contract)."""
    keep, drop = values[::2], values[1::2]
    streamed = LogHistogram()
    for v in values:
        streamed.add(v)
    for v in drop:
        streamed.remove(v)
    fresh = LogHistogram()
    for v in keep:
        fresh.add(v)
    assert streamed._counts == fresh._counts
    assert len(streamed) == len(fresh)


def test_numpy_percentile_is_not_the_gate():
    """Document the divergence the shared estimator kills: nearest-rank
    and linear interpolation disagree at small n, so any pair of paths
    using one each can reach opposite SLO verdicts."""
    values = [1.0, 10.0]
    hist = LogHistogram()
    for v in values:
        hist.add(v)
    interpolated = float(np.percentile(values, 50))      # 5.5
    nearest = hist.quantile(50)                          # ~1.0
    assert nearest == pytest.approx(1.0, rel=hist.rel_error_bound())
    assert abs(interpolated - nearest) > 1.0


def _scan_quantiles(hist, qs):
    """The bucket scan ``quantiles`` used before the cumulative search,
    frozen as the oracle."""
    if hist._total == 0:
        return [0.0] * len(qs)
    ranks = [max(1, math.ceil(q / 100.0 * hist._total)) for q in qs]
    order = sorted(range(len(qs)), key=ranks.__getitem__)
    out = [0.0] * len(qs)
    seen = 0
    pos = 0
    for idx, count in enumerate(hist._counts):
        seen += count
        while pos < len(order) and seen >= ranks[order[pos]]:
            out[order[pos]] = hist._representative(idx)
            pos += 1
        if pos == len(order):
            break
    return out


@given(values=st.lists(st.one_of(st.floats(0.0, 20.0),
                                 st.sampled_from((0.5, 1.0, 1.5, 15.0))),
                       max_size=60),
       removed=st.integers(0, 10),
       qs=st.lists(st.floats(min_value=1e-9, max_value=100.0), max_size=5),
       edges=st.lists(st.integers(0, 60), max_size=4))
@settings(max_examples=300, deadline=None)
def test_quantiles_match_the_bucket_scan(values, removed, qs, edges):
    """The cumulative search picks the scan's bucket for every rank:
    ranks that land exactly on a running count, q = 100, underflow and
    overflow buckets, emptied and empty histograms."""
    hist = LogHistogram(min_value=1.0, max_value=10.0, growth=1.5)
    for v in values:
        hist.add(v)
    for v in values[:removed]:
        hist.remove(v)
    total = len(hist)
    # q at exact rank edges: k / total of the way through the counts.
    qs = [*qs, 100.0, *(100.0 * min(k, total) / max(total, 1)
                        for k in edges if k)]
    assert hist.quantiles(tuple(qs)) == _scan_quantiles(hist, qs)
    for q in qs:
        assert hist.quantile(q) == _scan_quantiles(hist, [q])[0]
