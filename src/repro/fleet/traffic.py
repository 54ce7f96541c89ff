"""Open-loop traffic generation: arrival schedules and tenant mixes.

The paper's evaluation is closed-loop — N workers each keep one request
in flight (``--max-concurrency``).  Production traffic is open-loop: users
arrive whether or not the fleet keeps up.  This module provides arrival
*schedules* (time-varying rate functions sampled by Poisson thinning) and
weighted multi-tenant request mixes over the ShareGPT sampler, all driven
by the simkernel's named RNG streams so every scenario is reproducible
from its seed alone.

Schedules compose: a :class:`FlashCrowdSchedule` wraps any inner schedule
and multiplies its rate during a burst window — a diurnal day with a flash
crowd is ``FlashCrowdSchedule(DiurnalSchedule(...), ...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING

import numpy as np

from ..bench.sharegpt import SampledRequest, ShareGptSampler
from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel

DAY = 86400.0

#: Candidate arrivals drawn per vectorized RNG call during thinning.
THINNING_BATCH = 1024


def _thin_blocks(schedule: ArrivalSchedule, rng: np.random.Generator,
                 start: float, end: float, envelope: float,
                 batch: int = THINNING_BATCH) -> Iterator[list[float]]:
    """Lewis-Shedler thinning over ``[start, end)``, yielding *blocks*.

    The hot path of every fleet scenario: instead of two scalar RNG
    calls (gap + accept draw) per candidate event, candidates are drawn
    ``batch`` at a time with vectorized exponential/uniform draws and the
    acceptance test evaluates :meth:`ArrivalSchedule.rate_array` once per
    batch.  Yields the accepted times of each candidate batch as an
    ascending list (empty batches are skipped), so consumers can do
    per-block work — the traffic generator draws one vectorized
    tenant/length batch per block.  Flattened, they are
    :meth:`ArrivalSchedule.arrivals`.

    A batch that :meth:`ArrivalSchedule.zero_between` proves lies
    where the rate is zero skips the rate evaluation, keeping its
    draws: it accepts nothing unless some accept draw times the
    envelope is exactly 0.0, which ``0.0 <= rate`` accepts.
    """
    if envelope <= 0:
        raise ConfigurationError("schedule peak rate must be positive")
    t = start
    scale = 1.0 / envelope
    while t < end:
        gaps = rng.exponential(scale, size=batch)
        accepts = rng.random(batch)
        times = t + np.cumsum(gaps)
        t = float(times[-1])
        if (schedule.zero_between(float(times[0]), t)
                and float(accepts.min()) * envelope > 0.0):
            continue
        keep = accepts * envelope <= schedule.rate_array(times)
        accepted = times[keep & (times < end)]
        if accepted.size:
            yield accepted.tolist()


class ArrivalSchedule:
    """A time-varying arrival-rate function, sampled by thinning.

    Subclasses implement :meth:`rate` (instantaneous requests/second at
    simulated time ``t``) and :meth:`peak_rate` (a tight upper bound used
    as the thinning envelope); overriding :meth:`rate_array` with a
    vectorized form keeps batched thinning off the per-event Python path.
    """

    def rate(self, t: float) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def peak_rate(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def rate_array(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rate`; subclasses override with pure numpy."""
        return np.fromiter((self.rate(float(t)) for t in ts),
                           dtype=float, count=len(ts))

    def zero_between(self, first: float, last: float) -> bool:
        """True only if :meth:`rate_array` is 0.0 at every time in
        ``[first, last]``; False whenever that is not proven."""
        return False

    def arrivals(self, rng: np.random.Generator, start: float,
                 horizon: float) -> Iterator[float]:
        """Yield absolute arrival times in ``[start, start + horizon)``.

        Non-homogeneous Poisson process via batched Lewis-Shedler
        thinning: candidates are drawn at the peak rate in vectorized
        blocks, each accepted with probability ``rate(t) / peak``.
        """
        for block in self.arrival_blocks(rng, start, horizon):
            yield from block

    def arrival_blocks(self, rng: np.random.Generator, start: float,
                       horizon: float) -> Iterator[list[float]]:
        """Block view of :meth:`arrivals`: one list per candidate batch.

        Same RNG call sequence, same accepted times — the block grouping
        is the only difference, and it is what lets the traffic
        generator batch its per-arrival tenant and length draws.
        """
        yield from _thin_blocks(self, rng, start, start + horizon,
                                self.peak_rate())

    def mean_rate(self, start: float = 0.0, horizon: float = DAY,
                  samples: int = 1440) -> float:
        """Numerical average of :meth:`rate` (sizing helper).

        Degenerate inputs are rejected up front — ``np.mean`` over zero
        samples would silently return NaN.
        """
        if horizon <= 0 or samples < 1:
            raise ConfigurationError(
                "mean_rate needs horizon > 0 and samples >= 1")
        ts = np.linspace(start, start + horizon, samples, endpoint=False)
        return float(np.mean([self.rate(t) for t in ts]))


@dataclass(frozen=True)
class PoissonSchedule(ArrivalSchedule):
    """Homogeneous Poisson arrivals at a constant rate (req/s)."""

    rate_rps: float

    def __post_init__(self):
        if self.rate_rps <= 0:
            raise ConfigurationError("rate_rps must be positive")

    def rate(self, t: float) -> float:
        return self.rate_rps

    def rate_array(self, ts: np.ndarray) -> np.ndarray:
        return np.full(len(ts), self.rate_rps)

    def peak_rate(self) -> float:
        return self.rate_rps


@dataclass(frozen=True)
class DiurnalSchedule(ArrivalSchedule):
    """Sinusoidal day/night cycle between ``base_rps`` and ``peak_rps``.

    The rate peaks at ``peak_hour`` (simulated clock, hours) and bottoms
    out half a period later — the classic interactive-traffic diurnal.
    """

    base_rps: float
    peak_rps: float
    period: float = DAY
    peak_hour: float = 14.0

    def __post_init__(self):
        if not (0 < self.base_rps <= self.peak_rps):
            raise ConfigurationError(
                "need 0 < base_rps <= peak_rps "
                f"(got {self.base_rps}, {self.peak_rps})")
        if self.period <= 0:
            raise ConfigurationError("period must be positive")

    def rate(self, t: float) -> float:
        phase = 2.0 * math.pi * (t - self.peak_hour * 3600.0) / self.period
        blend = 0.5 * (1.0 + math.cos(phase))  # 1 at peak_hour, 0 opposite
        return self.base_rps + (self.peak_rps - self.base_rps) * blend

    def rate_array(self, ts: np.ndarray) -> np.ndarray:
        phase = 2.0 * np.pi * (ts - self.peak_hour * 3600.0) / self.period
        blend = 0.5 * (1.0 + np.cos(phase))
        return self.base_rps + (self.peak_rps - self.base_rps) * blend

    def peak_rate(self) -> float:
        return self.peak_rps


@dataclass(frozen=True)
class PulseSchedule(ArrivalSchedule):
    """Periodic on/off bursts: ``rate_rps`` during the first
    ``duty``-fraction of every ``period``, zero in between.

    The batch-ingest / nightly-report arrival shape: long silent gaps
    punctuated by dense bursts.  The zero-rate gaps are what the fleet
    fast-forward path collapses — thinning rejects every candidate in a
    gap, so whole idle stretches cost no simulated events at all.
    """

    rate_rps: float
    period: float = DAY
    duty: float = 0.0125

    def __post_init__(self):
        if self.rate_rps <= 0:
            raise ConfigurationError("rate_rps must be positive")
        if self.period <= 0:
            raise ConfigurationError("period must be positive")
        if not (0 < self.duty <= 1):
            raise ConfigurationError("duty must be in (0, 1]")

    def rate(self, t: float) -> float:
        return (self.rate_rps
                if (t % self.period) < self.duty * self.period else 0.0)

    def rate_array(self, ts: np.ndarray) -> np.ndarray:
        on = np.mod(ts, self.period) < self.duty * self.period
        return np.where(on, self.rate_rps, 0.0)

    def zero_between(self, first: float, last: float) -> bool:
        # Float ``%`` and ``np.mod`` of non-negative times are exact.
        # Less than a period apart with the phase not wrapping, the two
        # ends share a period, so every time between them has a phase
        # between theirs, all past the on-window.
        period = self.period
        return (last - first < period
                and first % period <= last % period
                and first % period >= self.duty * period)

    def peak_rate(self) -> float:
        return self.rate_rps


@dataclass(frozen=True)
class FlashCrowdSchedule(ArrivalSchedule):
    """A burst overlay: multiply an inner schedule during a window.

    The multiplier ramps linearly over ``ramp`` seconds at both edges —
    flash crowds build in minutes, not instantaneously.
    """

    inner: ArrivalSchedule
    start: float
    duration: float
    multiplier: float
    ramp: float = 120.0

    def __post_init__(self):
        if self.multiplier < 1.0:
            raise ConfigurationError("flash multiplier must be >= 1")
        if self.duration <= 0 or self.ramp < 0:
            raise ConfigurationError("bad flash window")

    def factor(self, t: float) -> float:
        dt = t - self.start
        if dt < 0 or dt > self.duration:
            return 1.0
        edge = min(dt, self.duration - dt)
        if self.ramp > 0 and edge < self.ramp:
            return 1.0 + (self.multiplier - 1.0) * edge / self.ramp
        return self.multiplier

    def rate(self, t: float) -> float:
        return self.inner.rate(t) * self.factor(t)

    def rate_array(self, ts: np.ndarray) -> np.ndarray:
        dt = ts - self.start
        inside = (dt >= 0) & (dt <= self.duration)
        if self.ramp > 0:
            edge = np.minimum(dt, self.duration - dt)
            ramped = 1.0 + (self.multiplier - 1.0) * np.minimum(
                edge / self.ramp, 1.0)
            factor = np.where(inside, ramped, 1.0)
        else:
            factor = np.where(inside, self.multiplier, 1.0)
        return self.inner.rate_array(ts) * factor

    def peak_rate(self) -> float:
        return self.inner.peak_rate() * self.multiplier

    def zero_between(self, first: float, last: float) -> bool:
        return self.inner.zero_between(first, last)

    def arrival_blocks(self, rng: np.random.Generator, start: float,
                       horizon: float) -> Iterator[list[float]]:
        """Piecewise batched thinning: only the burst window pays the
        multiplied envelope, so a short flash on a long day does not
        reject ``multiplier``-fold candidates for the whole horizon."""
        end = start + horizon
        flash_start, flash_end = self.start, self.start + self.duration
        inner_peak = self.inner.peak_rate()
        segments = (
            (start, min(end, flash_start), inner_peak),
            (max(start, flash_start), min(end, flash_end),
             inner_peak * self.multiplier),
            (max(start, flash_end), end, inner_peak),
        )
        for seg_start, seg_end, envelope in segments:
            if seg_start >= seg_end:
                continue
            yield from _thin_blocks(self, rng, seg_start, seg_end, envelope)


@dataclass(frozen=True)
class Tenant:
    """One traffic class: a name, a share of arrivals, and its workload.

    ``sampler_kw`` feeds :class:`~repro.bench.sharegpt.ShareGptSampler`
    (e.g. ``max_total_tokens``) so tenants can differ in request shape —
    short interactive chats vs long batch-analytics completions.
    """

    name: str
    weight: float
    sampler_kw: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.weight <= 0:
            raise ConfigurationError(f"tenant {self.name!r} weight <= 0")


class TenantMix:
    """Weighted multi-tenant request source over ShareGPT sampling.

    Each tenant draws lengths from its *own* named RNG stream, so adding
    a tenant never perturbs another tenant's request sequence.
    """

    def __init__(self, kernel: SimKernel, tenants: list[Tenant],
                 stream_prefix: str = "fleet.tenant"):
        if not tenants:
            raise ConfigurationError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names in {names}")
        self.tenants = list(tenants)
        total = sum(t.weight for t in tenants)
        self._cumulative = np.cumsum([t.weight / total for t in tenants])
        self._samplers = {
            t.name: ShareGptSampler(
                kernel.rng.stream(f"{stream_prefix}.{t.name}"),
                **t.sampler_kw)
            for t in tenants}

    @classmethod
    def single(cls, kernel: SimKernel, name: str = "default",
               **sampler_kw) -> TenantMix:
        return cls(kernel, [Tenant(name, 1.0, sampler_kw)])

    def pick(self, rng: np.random.Generator) -> Tenant:
        """Pick a tenant by weight (no request sampled — the session
        workload draws its own lengths from per-session streams)."""
        idx = int(np.searchsorted(self._cumulative, rng.random()))
        return self.tenants[min(idx, len(self.tenants) - 1)]

    def draw(self, rng: np.random.Generator) -> tuple[str, SampledRequest]:
        """Pick a tenant by weight and sample one request from it."""
        tenant = self.pick(rng)
        sample = self._samplers[tenant.name].sample(1)[0]
        return tenant.name, sample

    def draw_block(self, rng: np.random.Generator,
                   count: int) -> list[tuple[str, SampledRequest]]:
        """``count`` :meth:`draw` calls, batched, bit-identical streams.

        The pick draws come from one vectorized ``rng.random(count)``
        (numpy consumes the bit stream exactly as ``count`` scalar
        calls would), and each tenant's length pairs come from one
        :meth:`~repro.bench.sharegpt.ShareGptSampler.sample_pairs` call
        on its own stream — tenant streams never interleave, so
        grouping per tenant preserves every stream verbatim.
        """
        if count < 1:
            raise ConfigurationError("need at least one draw")
        picks = rng.random(count)
        last = len(self.tenants) - 1
        idxs = np.minimum(np.searchsorted(self._cumulative, picks), last)
        names = [self.tenants[i].name for i in idxs]
        wanted: dict[str, int] = {}
        for name in names:
            wanted[name] = wanted.get(name, 0) + 1
        batches = {name: iter(self._samplers[name].sample_pairs(n))
                   for name, n in wanted.items()}
        return [(name, next(batches[name])) for name in names]


class TrafficGenerator:
    """Drives an open-loop request stream into a submit callback.

    ``submit(tenant_name, sample)`` must be non-blocking (fire-and-forget:
    the fleet starts one process per request) — the generator never waits
    for completions, only for the next arrival.
    """

    def __init__(self, kernel: SimKernel, schedule: ArrivalSchedule,
                 mix: TenantMix,
                 submit: Callable[[str, SampledRequest], None],
                 stream: str = "fleet.arrivals"):
        self.kernel = kernel
        self.schedule = schedule
        self.mix = mix
        self.submit = submit
        self.rng = kernel.rng.stream(stream)
        self.generated = 0

    def run(self, horizon: float):
        """Generator process: emit arrivals for ``horizon`` seconds."""
        kernel = self.kernel
        start = kernel.now
        for block in self.schedule.arrival_blocks(self.rng, start, horizon):
            # One vectorized tenant/length batch per thinning block: RNG
            # streams are consumed in exactly the per-arrival order
            # (picks follow the block's candidate draws; tenant streams
            # never interleave with anything else).
            entries = self.mix.draw_block(self.rng, len(block))
            for t, (tenant, sample) in zip(block, entries, strict=True):
                if t > kernel.now:
                    yield t - kernel.now
                self.submit(tenant, sample)
                self.generated += 1
                if self.generated % 1000 == 0:
                    kernel.trace.emit(
                        "fleet.traffic", generated=self.generated,
                        rate=round(self.schedule.rate(kernel.now), 3))
        return self.generated
