"""Fleet-level fast-forward: bit-identity vs stepping, and auto-off.

The contract under test (docs/performance.md, "Fleet fast-forward"):
with ``FleetConfig.fast_forward`` on, every digest-visible artifact —
the serialized :class:`FleetReport` (tokens, TTFTs, finish times,
snapshots), the kernel trace digest, the span/metrics/scrape digests,
and the autoscaler digest — must be *byte-identical* to a run
with fast-forward off.  Not statistically close: identical.  Every
request takes the one request path either way; quiet-tick fast-play
must disarm itself, silently falling back to stepping, whenever a
FaultPlan is armed.  Open-loop and session traffic fast-play alike: a
quiet window ends at the next pending kernel entry that is not a
periodic tick, whoever queued it.  Chaos runs fast-play too; their
differential tests live in tests/chaos/test_chaos_fastforward.py.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import build_sandia_site
from repro.fleet import (AutoscalerConfig, DisaggSpec, Fleet, FleetConfig,
                         FlashCrowdSchedule, PoissonSchedule, SloSpec)
from repro.fleet.traffic import PulseSchedule

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"


def _build_fleet(seed: int, fast_forward: bool, platforms=("hops",),
                 max_replicas: int = 3, min_replicas: int = 1,
                 disagg: bool = False) -> tuple:
    site = build_sandia_site(seed=seed, hops_nodes=6, eldorado_nodes=2,
                             goodall_nodes=3, cee_nodes=1)
    config = FleetConfig(
        model=QUANT, tensor_parallel_size=2,
        platforms=platforms,
        policy="least-outstanding",
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(
            min_replicas=min_replicas, max_replicas=max_replicas,
            target_outstanding=8.0, up_cooldown=120.0,
            down_cooldown=600.0, low_streak=4),
        disagg=DisaggSpec(enabled=disagg),
        fast_forward=fast_forward)
    return site, Fleet(site, config)


def _count_quiet(fleet) -> dict:
    """Wrap ``fleet.ff.quiet`` to count the instants it held."""
    seen = {"quiet": 0}
    quiet = fleet.ff.quiet

    def counted() -> bool:
        held = quiet()
        seen["quiet"] += held
        return held

    fleet.ff.quiet = counted
    return seen


def _play(site, fleet, schedule, horizon: float, replicas: int = 1,
          during=None, sessions=None) -> dict:
    """Run one scenario and capture every digest-visible artifact.

    ``during(env)``, when given, runs as its own process alongside the
    scenario (mid-run fault injection).  ``sessions`` turns the
    schedule's arrivals into session starts.
    """
    seen = _count_quiet(fleet)

    def scenario(env):
        yield from fleet.start(initial_replicas=replicas)
        if during is not None:
            env.spawn(during(env))
        report = yield from fleet.run_scenario(
            schedule, horizon=horizon, label="ff-equiv", sessions=sessions)
        return report

    report = site.kernel.run(until=site.kernel.spawn(scenario(site.kernel)))
    return {
        "report": json.dumps(report.to_json(), sort_keys=True),
        "trace": site.kernel.trace.digest(),
        "obs": json.dumps(report.obs, sort_keys=True),
        "samples": fleet.autoscaler.digest(),
        "snapshots": json.dumps(report.snapshots),
        "fast": fleet.ff.fast_requests,
        "quiet": seen["quiet"],
        "now": site.kernel.now,
        "arrivals": report.arrivals,
        "retried": fleet.router_app.retried_ok,
    }


EQUIV_KEYS = ("report", "trace", "obs", "samples", "snapshots", "now")


def test_flash_crowd_bit_identical_vs_stepping():
    """Busy scenario: a 150x flash crowd scaling 1 -> 3 -> 1.

    Thousands of requests, scale-outs, node boots, health passes, and
    monitor tapes — all byte-identical across the two arms.  Both arms
    issue every request through the one request path; only the on arm
    fast-plays quiet ticks.
    """
    schedule = FlashCrowdSchedule(
        PoissonSchedule(0.1), start=600.0, duration=900.0,
        multiplier=150.0, ramp=120.0)
    runs = {}
    for ff in (True, False):
        site, fleet = _build_fleet(seed=99, fast_forward=ff,
                                   platforms=("hops", "goodall"))
        runs[ff] = _play(site, fleet, schedule, horizon=5400.0)
    on, off = runs[True], runs[False]
    assert on["arrivals"] > 1000
    assert on["fast"] == off["fast"] == on["arrivals"]
    assert on["quiet"] > 0
    assert off["quiet"] == 0                # config off forces stepping
    for key in EQUIV_KEYS:
        assert on[key] == off[key], f"fast-forward diverged on {key!r}"


def test_pulse_gaps_bit_identical_vs_stepping():
    """Gappy scenario: short bursts with hours-long dead air between.

    This is the shape the fast-forward exists for — the idle gaps are
    where the autoscaler/monitor/health fast-play skips ticks, and
    where any phase or closed-form error would show up as a diverging
    autoscaler digest or snapshot row.
    """
    schedule = PulseSchedule(rate_rps=1.2, period=21600.0,
                             duty=600.0 / 21600.0)
    runs = {}
    for ff in (True, False):
        site, fleet = _build_fleet(seed=7, fast_forward=ff)
        runs[ff] = _play(site, fleet, schedule, horizon=86400.0)
    on, off = runs[True], runs[False]
    assert on["arrivals"] > 1000
    assert on["fast"] == on["arrivals"]
    assert on["quiet"] > 0
    for key in EQUIV_KEYS:
        assert on[key] == off[key], f"fast-forward diverged on {key!r}"


def _telemetry_arm(fast_forward: bool, monkeypatch) -> dict:
    """One pulse day with the scrape instants recorded: ``live`` when
    ``MetricsRegistry.sample_dict`` ran, ``idle`` when the governor
    skipped the telemetry tick."""
    from repro.obs.scrape import MetricsScraper

    site, fleet = _build_fleet(seed=1, fast_forward=fast_forward)
    kernel = site.kernel
    live, idle, start = [], [], []
    registry = kernel.obs.registry
    sample_dict = registry.sample_dict

    def counted_sample_dict():
        live.append(kernel.now)
        return sample_dict()

    registry.sample_dict = counted_sample_dict
    scrape_idle = MetricsScraper.scrape_idle

    def recorded_scrape_idle(self, t):
        idle.append(t)
        scrape_idle(self, t)

    monkeypatch.setattr(MetricsScraper, "scrape_idle", recorded_scrape_idle)
    schedule = PulseSchedule(rate_rps=0.05, period=7200.0,
                             duty=600.0 / 7200.0)

    def scenario(env):
        yield from fleet.start(initial_replicas=1)
        start.append(env.now)
        report = yield from fleet.run_scenario(
            schedule, horizon=3 * 7200.0, label="telemetry")
        return report

    report = kernel.run(until=kernel.spawn(scenario(kernel)))
    return {"report": report, "alerts": fleet.alerts, "live": live,
            "idle": idle, "start": start[0], "end": kernel.now}


def test_telemetry_loop_skips_scrapes_exactly(monkeypatch):
    """The telemetry loop scrapes, then evaluates alerts, on one stepped
    chain; quiet-play skips its ticks with empty-delta scrapes that
    never read the registry, and evaluates alerts on them all the same.
    """
    runs = {ff: _telemetry_arm(ff, monkeypatch) for ff in (True, False)}
    on, off = runs[True], runs[False]
    for run in (on, off):
        scraper = run["alerts"].scraper
        periodic = [s.time for s in scraper.samples[:-1]]   # last: the pin
        chain, t = [], run["start"]
        while len(chain) < len(periodic):
            t += scraper.interval
            chain.append(t)
        assert periodic == chain
        assert scraper.samples[-1].time == run["end"]
        assert run["alerts"].evaluations == len(scraper.samples)
    # Stepping reads the registry on every tick; quiet-play only on the
    # live ones (plus, in both arms, the pin scrape and the summary).
    periodic = chain                # the same chain in both arms
    assert off["idle"] == []
    assert off["live"] == periodic + [off["end"]] * 2
    assert on["idle"]
    assert sorted(on["live"][:-2] + on["idle"]) == periodic
    # The absence rule's silence grows through a skipped window, and
    # each evaluation reads its own tick's scrape: the rule resolves
    # with zero silence on the tick whose scrape sees traffic again.
    events = on["alerts"].events
    idle = set(on["idle"])
    assert any(e.time in idle for e in events)
    resolved = [e.value for e in events if e.state == "resolved"]
    assert resolved and set(resolved) == {0.0}
    assert json.dumps(on["report"].obs, sort_keys=True) == \
        json.dumps(off["report"].obs, sort_keys=True)


def _pulse_arms(seed: int, rate: float, period: float, duty: float,
                min_replicas: int, replicas: int, periods: int,
                crash_at: float | None = None, disagg: bool = False,
                sessions: bool = False) -> dict:
    """Both arms of one pulse shape (``duty`` in seconds per period).

    ``crash_at`` attaches a :func:`~repro.vllm.faults.CrashAtTime` to
    one live engine at that absolute time; the engine only crashes once
    load next reaches it, so a crash attached in a traffic gap lands
    while every periodic loop is skipping ticks.  ``sessions`` makes
    each arrival a multi-turn conversation whose later turns follow
    closed-loop think timers.
    """
    from repro.sessions import SessionSpec
    from repro.vllm import faults

    schedule = PulseSchedule(rate_rps=rate, period=period,
                             duty=duty / period)
    runs = {}
    for ff in (True, False):
        site, fleet = _build_fleet(seed=seed, fast_forward=ff,
                                   min_replicas=min_replicas, disagg=disagg)
        during = None
        if crash_at is not None:
            def during(env, fleet=fleet):
                yield env.timeout(max(0.0, crash_at - env.now))
                engine = next(iter(fleet.ff.engines().values()))
                faults.attach(engine, faults.CrashAtTime(
                    env.now, reason="crash in the gap"))
        runs[ff] = _play(site, fleet, schedule, horizon=periods * period,
                         replicas=replicas, during=during,
                         sessions=SessionSpec(enabled=sessions))
    return runs


@given(seed=st.integers(min_value=0, max_value=2**16),
       rate=st.sampled_from((0.02, 0.05, 0.1, 0.2)),
       period=st.sampled_from((1800.0, 3600.0, 5400.0)),
       duty=st.sampled_from((150.0, 300.0, 600.0)),
       min_replicas=st.integers(min_value=1, max_value=2),
       replicas=st.integers(min_value=1, max_value=3),
       crash=st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.9)),
       disagg=st.booleans(),
       sessions=st.booleans(),
       periods=st.just(3))
@example(seed=1, rate=0.05, period=7200.0, duty=600.0, min_replicas=2,
         replicas=1, crash=None, disagg=False, sessions=False, periods=4)
@example(seed=1, rate=0.05, period=7200.0, duty=600.0, min_replicas=1,
         replicas=1, crash=None, disagg=False, sessions=False, periods=4)
@example(seed=1, rate=0.05, period=7200.0, duty=600.0, min_replicas=2,
         replicas=2, crash=0.3, disagg=False, sessions=False, periods=4)
@example(seed=2, rate=0.1, period=3600.0, duty=600.0, min_replicas=1,
         replicas=1, crash=None, disagg=False, sessions=True, periods=3)
@settings(max_examples=6, deadline=None)
def test_pulse_shapes_bit_identical_vs_stepping(seed, rate, period, duty,
                                                min_replicas, replicas,
                                                crash, disagg, sessions,
                                                periods):
    """Generated pulse shapes: every digest-visible artifact is equal
    with quiet-play on and off, and quiet-play holds in the gaps.

    ``crash`` places a crash fault at that fraction of the second
    traffic gap; ``disagg`` serves through prefill and decode pools;
    ``sessions`` makes every arrival a closed-loop conversation.  The
    first three pinned examples are the shapes where the per-loop skip
    routines diverged from stepping: a float-chain mismatch in the
    autoscaler digest, a scrape that read an SLO window trimmed ahead of
    the clock, and health passes that resumed off their stepped phase
    after a crash attached in the gap.  The fourth is session traffic,
    which fast-plays like open-loop traffic: its think timers are heap
    entries, so they bound a window like any other.
    """
    crash_at = None
    if crash is not None:
        gap_start = period + duty
        crash_at = gap_start + crash * (2 * period - gap_start)
    runs = _pulse_arms(seed, rate, period, duty, min_replicas, replicas,
                       periods, crash_at=crash_at, disagg=disagg,
                       sessions=sessions)
    on, off = runs[True], runs[False]
    assert on["quiet"] > 0
    assert off["quiet"] == 0
    for key in EQUIV_KEYS:
        assert on[key] == off[key], f"fast-forward diverged on {key!r}"


def test_deploy_inside_a_traffic_gap_ends_the_quiet_window():
    """A scale-out that a timer starts in the middle of a traffic gap:
    the timer is a pending kernel entry, so it ends the quiet window
    and every loop ticks live through the deploy, as stepping does."""
    schedule = PulseSchedule(0.5, period=7200.0, duty=600.0 / 7200.0)
    runs = {}
    for ff in (True, False):
        site, fleet = _build_fleet(seed=5, fast_forward=ff)

        def scale_out(env, fleet=fleet):
            yield env.timeout(10200.0)
            yield from fleet.add_replicas(1)

        runs[ff] = _play(site, fleet, schedule, horizon=4 * 7200.0,
                         during=scale_out)
    on, off = runs[True], runs[False]
    assert on["quiet"] > 0
    for key in EQUIV_KEYS:
        assert on[key] == off[key], f"fast-forward diverged on {key!r}"


def test_armed_fault_plan_disarms_quiet_play():
    """An armed FaultPlan — even one whose triggers never fire — must
    disarm quiet-tick fast-play for the whole scenario."""
    from repro.vllm import faults

    site, fleet = _build_fleet(seed=11, fast_forward=True)
    seen = _count_quiet(fleet)
    schedule = PulseSchedule(rate_rps=0.5, period=3600.0, duty=0.25)

    def scenario(env):
        yield from fleet.start(initial_replicas=1)
        for engine in fleet.ff.engines().values():
            faults.attach(engine, lambda eng: None)   # armed, never fires
        report = yield from fleet.run_scenario(
            schedule, horizon=7200.0, label="armed")
        return report

    report = site.kernel.run(until=site.kernel.spawn(scenario(site.kernel)))
    assert report.arrivals > 500
    assert seen["quiet"] == 0
    assert fleet.ff.fast_requests == report.arrivals
    assert report.slo.completed == report.arrivals


def test_mid_run_fault_fails_over_like_stepping():
    """A crash fault attached to a live engine mid-scenario, outside the
    chaos orchestrator, fails over on the one request path: the
    fast-forward arm matches the stepped arm byte for byte."""
    from repro.vllm import faults

    schedule = PoissonSchedule(0.5)
    runs = {}
    for ff in (True, False):
        site, fleet = _build_fleet(seed=13, fast_forward=ff, min_replicas=2)

        def crash_one(env, fleet=fleet):
            yield env.timeout(300.0)
            engine = next(iter(fleet.ff.engines().values()))
            faults.attach(engine, faults.CrashAtTime(
                env.now, reason="mid-run OOM"))

        runs[ff] = _play(site, fleet, schedule, horizon=1800.0,
                         replicas=2, during=crash_one)
    on, off = runs[True], runs[False]
    assert on["arrivals"] > 500
    assert on["retried"] > 0                # failover saved requests
    for key in EQUIV_KEYS:
        assert on[key] == off[key], f"fast-forward diverged on {key!r}"


def test_disagg_pulse_bit_identical_vs_stepping():
    """Disaggregated serving keeps quiet-play armed: the quiet predicate
    checks every backend and engine, prefill ones included, so a disagg
    pulse day matches stepping byte for byte."""
    runs = _pulse_arms(seed=2, rate=0.5, period=7200.0, duty=600.0,
                       min_replicas=1, replicas=1, periods=3, disagg=True)
    on, off = runs[True], runs[False]
    assert on["arrivals"] > 500
    assert on["quiet"] > 0
    assert json.loads(on["report"])["slo"]["paths"]["kv_transfers"] > 0
    for key in EQUIV_KEYS:
        assert on[key] == off[key], f"fast-forward diverged on {key!r}"


def test_spec_fast_forward_round_trips_and_gates_run_cell():
    """The campaign knob reaches the fleet, and a tiny cell is
    byte-identical across the two spec arms (trace + obs digests)."""
    from repro.campaign.runner import run_cell
    from repro.campaign.spec import ScenarioSpec, ScheduleSpec

    base = dict(name="ff-cell", seed=21, horizon=900.0,
                schedule=ScheduleSpec(kind="poisson", rate_rps=0.3))
    on = ScenarioSpec(**base)
    off = ScenarioSpec(**base, fast_forward=False)
    assert on.fast_forward and not off.fast_forward
    assert ScenarioSpec.from_dict(off.to_dict()) == off
    assert on.spec_hash() != off.spec_hash()

    row_on = run_cell(on)
    row_off = run_cell(off)
    for key in ("trace_digest", "obs", "completed", "errors", "arrivals",
                "attainment", "goodput_rps"):
        assert row_on[key] == row_off[key], key


def test_pulse_schedule_spec_kind():
    from repro.campaign.spec import ScheduleSpec
    from repro.errors import ConfigurationError

    spec = ScheduleSpec(kind="pulse", rate_rps=2.0, period=7200.0,
                        duty=0.125)
    schedule = spec.build()
    assert isinstance(schedule, PulseSchedule)
    assert schedule.rate_rps == 2.0
    with pytest.raises(ConfigurationError):
        ScheduleSpec(kind="pulse", duty=0.0)
    with pytest.raises(ConfigurationError):
        ScheduleSpec(kind="pulse", duty=1.5)
