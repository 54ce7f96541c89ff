"""``Histogram.observe`` buffers raw values and buckets them in bulk.

The oracle is the per-value path, frozen here: every ``observe`` maps
its value to a bucket through ``LogHistogram._index``'s arithmetic and
adds it to ``count`` and ``sum`` at once.  The buffered histogram must
read bit-equal bucket counts, ``count`` and ``sum`` at every read,
whatever the fold cap, with reads between observations.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram, MetricsRegistry, parse_exposition
from repro.obs.stats import LogHistogram


class _PerValue:
    """The per-value histogram as it was: one ``_index`` per observe."""

    def __init__(self) -> None:
        self.hist = LogHistogram()
        self.counts = [0] * len(self.hist._counts)
        self.count = 0
        self.sum = 0.0

    def _index(self, value: float) -> int:
        h = self.hist
        if value < h.min_value:
            return 0
        if value >= h.max_value:
            return h._buckets + 1
        idx = int(math.log(value / h.min_value) * h._inv_log_growth) + 1
        if idx < 1:
            return 1
        return min(idx, h._buckets)

    def observe(self, value: float) -> None:
        self.counts[self._index(value)] += 1
        self.count += 1
        self.sum += value


def _edges() -> list[float]:
    """Bucket edges of the default layout, with their neighbour ulps."""
    h = LogHistogram()
    out = []
    for i in (0, 1, 2, 100, 400, h._buckets - 1, h._buckets):
        edge = h.min_value * h.growth ** i
        out += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    return out


_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-3, 1e5, 1e-9, 1e9, math.inf,
                     math.nextafter(1e-3, 0.0), math.nextafter(1e5, 0.0),
                     math.nextafter(1e5, math.inf)] + _edges()),
    st.floats(min_value=-1.0, max_value=2e5, allow_nan=False),
    st.floats(min_value=1e-4, max_value=1e2))

#: ("observe", value) or ("read", which).
_OPS = st.lists(st.one_of(
    st.tuples(st.just("observe"), _VALUES),
    st.tuples(st.just("read"), st.sampled_from(
        ["samples", "hist", "count", "sum"]))), max_size=80)


def _histogram(registry: MetricsRegistry | None = None) -> Histogram:
    registry = registry or MetricsRegistry()
    return registry.histogram("h_seconds", labels=("k",)).labels(k="x")


def _check(got: Histogram, want: _PerValue) -> None:
    assert got.hist._counts == want.counts
    assert got.hist._total == want.count
    assert got.count == want.count
    assert math.copysign(1.0, got.sum) == math.copysign(1.0, want.sum)
    assert got.sum == want.sum or (math.isnan(got.sum)
                                   and math.isnan(want.sum))


@given(ops=_OPS, fold_at=st.sampled_from([1, 2, 5, 256]))
@settings(max_examples=200, deadline=None)
def test_buffered_observe_equals_the_per_value_oracle(ops, fold_at):
    default = Histogram._FOLD_AT
    Histogram._FOLD_AT = fold_at
    try:
        registry = MetricsRegistry()
        got, want = _histogram(registry), _PerValue()
        for op, arg in ops:
            if op == "observe":
                got.observe(arg)
                want.observe(arg)
                assert len(got._pending) < fold_at
            elif arg == "samples":
                parsed = parse_exposition(registry.exposition())
                labels = (("k", "x"),)
                assert parsed["h_seconds_count"][labels] == float(want.count)
                assert (parsed["h_seconds_sum"][labels] == want.sum
                        or math.isnan(want.sum))
                _check(got, want)
            else:
                getattr(got, arg)       # a read folds the buffer
                assert not got._pending
                _check(got, want)
        _check(got, want)
    finally:
        Histogram._FOLD_AT = default


def test_pending_values_fold_at_the_cap():
    got, want = _histogram(), _PerValue()
    for i in range(Histogram._FOLD_AT * 3 + 7):
        value = 1e-3 * 1.01 ** (i % 997)
        got.observe(value)
        want.observe(value)
        assert len(got._pending) < Histogram._FOLD_AT
    _check(got, want)


def test_sum_is_added_in_arrival_order():
    """``sum()`` compensates on newer CPythons; the fold must not."""
    got, want = _histogram(), _PerValue()
    for value in [1e16, 1.0, -1e16, 1.0] * 10:
        got.observe(value)
        want.observe(value)
    assert got.sum == want.sum
