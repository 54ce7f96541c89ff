"""Oracle: thinning that skips rate evaluation where the rate is zero.

A candidate batch that :meth:`ArrivalSchedule.zero_between` proves
lies where the rate is zero, and whose accept draws are all positive,
accepts nothing, so thinning skips its rate evaluation and keeps its
draws.  The oracle is the same schedule with ``zero_between`` forced
False: every batch evaluates the rate.  Both must yield the same blocks
and leave the RNG in the same state, on pulse, flash-over-pulse,
diurnal and Poisson schedules across seeds, on batches that span
several periods or wrap into the next burst, and on a batch whose
stubbed uniform draw is exactly 0.0 inside an off-window (``0.0 <=
rate`` accepts it even at rate zero).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.traffic import (DiurnalSchedule, FlashCrowdSchedule,
                                 PoissonSchedule, PulseSchedule)

DAY = 86400.0
#: candidates drawn per example, roughly: peak rate x horizon
_CANDIDATES = 40_000


def _blocks(schedule, rng, start, horizon):
    return (list(schedule.arrival_blocks(rng, start, horizon)),
            rng.bit_generator.state)


def _never(self, first, last):
    return False


def _unproven(schedule, make_rng, start, horizon):
    with mock.patch.object(PulseSchedule, "zero_between", _never), \
            mock.patch.object(FlashCrowdSchedule, "zero_between", _never):
        return _blocks(schedule, make_rng(), start, horizon)


def _assert_as_unproven(schedule, seed, start, horizon):
    fast = _blocks(schedule, np.random.default_rng(seed), start, horizon)
    slow = _unproven(schedule, lambda: np.random.default_rng(seed),
                     start, horizon)
    assert fast == slow


_PERIODS = st.sampled_from((1.0, 7.3, 100.0, 3600.0, DAY))


@st.composite
def _pulse(draw):
    return PulseSchedule(rate_rps=draw(st.floats(0.01, 200.0)),
                         period=draw(_PERIODS),
                         duty=draw(st.floats(0.001, 1.0)))


@st.composite
def _cells(draw, schedules):
    schedule = draw(schedules)
    horizon = draw(st.floats(1.0, _CANDIDATES / schedule.peak_rate()))
    return (schedule, draw(st.integers(0, 2**32 - 1)),
            draw(st.floats(0.0, 1e7)), horizon)


@st.composite
def _flash_over_pulse(draw):
    inner = draw(_pulse())
    return FlashCrowdSchedule(
        inner=inner, start=draw(st.floats(0.0, 1e4)),
        duration=draw(st.floats(1.0, 1e4)),
        multiplier=draw(st.floats(1.0, 4.0)),
        ramp=draw(st.sampled_from((0.0, 120.0))))


_SCHEDULES = st.one_of(
    _pulse(), _flash_over_pulse(),
    st.builds(DiurnalSchedule, base_rps=st.floats(0.01, 1.0),
              peak_rps=st.floats(1.0, 20.0),
              period=st.sampled_from((100.0, DAY))),
    st.builds(PoissonSchedule, rate_rps=st.floats(0.01, 50.0)))


@given(cell=_cells(_SCHEDULES))
@settings(max_examples=300, deadline=None)
def test_arrival_blocks_match_unproven_thinning(cell):
    _assert_as_unproven(*cell)


@given(cell=_cells(_pulse()))
@settings(max_examples=200, deadline=None)
def test_pulse_batches_spanning_or_wrapping_periods(cell):
    """Pulse shapes alone: the period draws make batches span several
    periods, wrap into the next burst, or start inside one."""
    _assert_as_unproven(*cell)


class _ZeroDraw:
    """A generator whose uniform draw ``at`` of batch ``batch`` is 0.0."""

    def __init__(self, seed: int, batch: int, at: int):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self._batch, self._at, self._seen = batch, at, 0

    def exponential(self, scale, size):
        return self.rng.exponential(scale, size=size)

    def random(self, size):
        draws = self.rng.random(size)
        if self._seen == self._batch:
            draws[self._at] = 0.0
        self._seen += 1
        return draws


def test_a_zero_accept_draw_in_an_off_window_is_still_accepted():
    pulse = PulseSchedule(rate_rps=1.0, period=DAY, duty=250.0 / DAY)
    horizon = 2 * DAY

    def stubbed():
        return _ZeroDraw(seed=7, batch=5, at=100)

    fast = _blocks(pulse, stubbed(), 0.0, horizon)
    slow = _unproven(pulse, stubbed, 0.0, horizon)
    assert fast == slow
    off = [t for block in fast[0] for t in block
           if not pulse.rate(t)]
    assert len(off) == 1, "the zero draw lands in an off-window"
    flash = FlashCrowdSchedule(inner=pulse, start=0.0, duration=100.0,
                               multiplier=2.0)
    assert _blocks(flash, stubbed(), 0.0, horizon) == \
        _unproven(flash, stubbed, 0.0, horizon)


def test_off_window_batches_skip_rate_evaluation():
    """Ten pulse days evaluate the rate on the few batches that touch a
    burst, not on the hundreds between them."""
    pulse = PulseSchedule(rate_rps=1.0, period=DAY, duty=250.0 / DAY)
    calls = []
    rate_array = PulseSchedule.rate_array

    def counted(self, ts):
        calls.append(len(ts))
        return rate_array(self, ts)

    with mock.patch.object(PulseSchedule, "rate_array", counted):
        blocks = list(pulse.arrival_blocks(np.random.default_rng(1), 0.0,
                                           10 * DAY))
    assert sum(len(block) for block in blocks) > 2000
    assert 10 <= len(calls) <= 40     # of ~846 batches
