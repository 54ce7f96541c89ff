"""The scenario catalogue: every named scenario and grid, declared once.

Each entry maps a name to a ``seed -> ScenarioSpec | CampaignGrid``
builder, and what it builds carries that name.  The command line only
looks entries up (``repro run NAME``, ``repro obs [NAME]``, ``repro
campaign [NAME]``) and edits them with ``--set PATH=VALUE`` through
:func:`~repro.campaign.spec.set_path`, so the spec's constructor stays
the one place a value is checked and coerced.  ``docs/campaign.md``
lists the entries.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from ..errors import ConfigurationError
from ..fleet.autoscaler import AutoscalerConfig
from ..fleet.slo import SloSpec
from ..sessions.spec import SessionSpec
from .runner import CampaignGrid
from .spec import ChaosEventSpec, ScenarioSpec, ScheduleSpec, SiteSpec

#: The SLO every built-in scenario is judged by: looser than the
#: interactive default, sized for the paper's quantized Scout.
_SLO = SloSpec(ttft_target=10.0, e2e_target=120.0)

#: The site the command-line days run on.
_CLI_SITE = SiteSpec(hops_nodes=8, eldorado_nodes=4, goodall_nodes=4,
                     cee_nodes=2)


# -- scenarios ------------------------------------------------------------------

def cli_fleet(seed: int = 42) -> ScenarioSpec:
    """Open-loop elastic day: diurnal traffic plus a flash crowd."""
    return ScenarioSpec(
        name="cli-fleet", seed=seed, platforms=("hops", "goodall"),
        policy="least-outstanding", scheduler_policy="fcfs",
        initial_replicas=1, horizon=6 * 3600.0, site=_CLI_SITE,
        schedule=ScheduleSpec(
            kind="diurnal", base_rps=0.05, peak_rps=0.25, peak_hour=3.0,
            flash_mult=60.0, flash_start=3 * 3600.0, flash_duration=1800.0),
        slo=_SLO,
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4))


def cli_sessions(seed: int = 42) -> ScenarioSpec:
    """Multi-turn conversational day with KV prefix caching."""
    return ScenarioSpec(
        name="cli-sessions", seed=seed, platforms=("hops", "goodall"),
        policy="cache-affinity", initial_replicas=1, horizon=6 * 3600.0,
        site=_CLI_SITE,
        schedule=ScheduleSpec(kind="diurnal", base_rps=0.02,
                              peak_rps=0.12, peak_hour=3.0),
        slo=_SLO,
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4),
        sessions=SessionSpec(enabled=True, mean_turns=5.0, min_turns=1,
                             max_turns=16, think_mean_s=30.0,
                             prefix_caching=True),
        gpu_memory_utilization=0.90)


def cli_obs(seed: int = 42) -> ScenarioSpec:
    """Half an hour of Poisson traffic on Hops: the span-view demo."""
    return ScenarioSpec(
        name="cli-obs", seed=seed, platforms=("hops",), initial_replicas=2,
        horizon=1800.0, site=SiteSpec(),
        schedule=ScheduleSpec(kind="poisson", rate_rps=0.5),
        slo=_SLO,
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3))


def chaos_case(seed: int = 42) -> ScenarioSpec:
    """The chaos matrix's quick case: a node crash on a Hops fleet."""
    return ScenarioSpec(
        name="chaos:hops", seed=seed, platforms=("hops",),
        initial_replicas=2, horizon=3600.0,
        site=SiteSpec(hops_nodes=6, eldorado_nodes=4, goodall_nodes=5,
                      cee_nodes=1),
        schedule=ScheduleSpec(kind="poisson", rate_rps=0.15),
        slo=_SLO,
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3,
                                    target_outstanding=8.0),
        chaos=(ChaosEventSpec("node_crash", inject_at=900.0,
                              fault_duration=600.0),),
        # Tighter than the fleet default: the alert evaluator runs at
        # the scrape cadence, and telemetry-driven detection delay is
        # only meaningful when resolved finer than the fault duration.
        scrape_interval=60.0)


def ff_100k(seed: int = 1234) -> ScenarioSpec:
    """~100k requests in 250 s bursts at 1 rps, one per day for 400
    days: dead air that fleet quiet-play collapses."""
    return ScenarioSpec(
        name="ff-100k", seed=seed, horizon=400 * 86400.0,
        schedule=ScheduleSpec(kind="pulse", rate_rps=1.0, period=86400.0,
                              duty=250.0 / 86400.0))


# -- grids ----------------------------------------------------------------------

def demo_grid(seed: int = 42) -> CampaignGrid:
    """The default 24-cell demo: 2 platforms x 2 schedules x 2 chaos
    modes x 3 seeds, half an hour of simulated traffic per cell.

    Arrival rates are sized for the streaming hot path (~2 req/s per
    cell, an order of magnitude above the original demo): ~85k requests
    across the grid, which the coalesced engine and O(1) metrics path
    simulate in seconds per cell (see ``benchmarks/bench_hotpath.py``).
    """
    base = ScenarioSpec(
        name="demo", seed=seed, horizon=1800.0, initial_replicas=2,
        site=SiteSpec(),
        schedule=ScheduleSpec(kind="poisson", rate_rps=2.0, base_rps=0.5,
                              peak_rps=3.0, period=3600.0, peak_hour=0.25),
        slo=_SLO,
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3))
    return CampaignGrid(
        base=base, name="demo-24",
        axes={
            "platforms": ["hops", "goodall"],
            "schedule.kind": ["poisson", "diurnal"],
            "chaos": ["none", "node_crash"],
            "seed": [seed, seed + 1, seed + 2],
        })


def smoke_grid(seed: int = 42) -> CampaignGrid:
    """A 4-cell, 15-simulated-minute grid: the CI regression gate for
    the runner itself (expansion, pool fan-out, merge, determinism)."""
    grid = demo_grid(seed)
    grid.name = "smoke-4"
    grid.base = dataclasses.replace(grid.base, name="smoke", horizon=900.0)
    grid.axes = {
        "platforms": ["hops", "goodall"],
        "chaos": ["none", {"scenario": "node_crash", "inject_at": 300.0,
                           "fault_duration": 200.0}],
        "seed": [seed],
    }
    return grid


def sessions_grid(seed: int = 42) -> CampaignGrid:
    """The built-in conversational sweep: turns x think-time x cache.

    9 cells of multi-turn traffic (30 simulated minutes each) under
    the cache-affinity router: conversation length {3, 6} x think time
    {10 s, 45 s} x prefix cache {on, off}, plus an explicit
    small-KV-budget cell.  The ``sessions.prefix_caching`` margin is the
    headline (later-turn TTFT with and without block reuse); the
    ``gpu_memory_utilization`` cell shows eviction pressure eating the
    hit rate.
    """
    base = ScenarioSpec(
        name="sessions", seed=seed, horizon=1800.0, initial_replicas=2,
        policy="cache-affinity", site=SiteSpec(),
        schedule=ScheduleSpec(kind="poisson", rate_rps=0.25),
        slo=_SLO,
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3),
        sessions=SessionSpec(enabled=True, mean_turns=5.0, min_turns=2,
                             think_mean_s=20.0))
    return CampaignGrid(
        base=base, name="sessions-9",
        axes={
            "sessions.mean_turns": [3.0, 6.0],
            "sessions.think_mean_s": [10.0, 45.0],
            "sessions.prefix_caching": [True, False],
        },
        cells=[
            # ~4.5x less KV than the 0.90 default on H100: eviction
            # pressure visibly dents the hit rate without starving
            # max_model_len.
            {"name": "sessions/small-kv",
             "gpu_memory_utilization": 0.50},
        ])


def disagg_grid(seed: int = 42) -> CampaignGrid:
    """The serving-architecture sweep: unified vs disaggregated.

    8 cells (30 simulated minutes each): serving path {unified,
    disagg} x arrival rate {moderate, heavy} x seed pair.  The
    ``disagg`` margin is the headline — TTFT on the disagg path should
    hold as decode load grows (prefill never queues behind decode
    batches), priced against the KV-transfer seconds the handoffs
    cost.  Disagg cells start one prefill + two decode replicas against
    unified's two, so both arms field three engines at peak.
    """
    base = ScenarioSpec(
        name="disagg", seed=seed, horizon=1800.0, initial_replicas=2,
        policy="round-robin",
        site=SiteSpec(hops_nodes=8, eldorado_nodes=2, goodall_nodes=4,
                      cee_nodes=1),
        schedule=ScheduleSpec(kind="poisson", rate_rps=1.0),
        slo=_SLO,
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3))
    return CampaignGrid(
        base=base, name="disagg-8",
        axes={
            "disagg": [False, True],
            "schedule.rate_rps": [1.0, 2.0],
            "seed": [seed, seed + 1],
        })


# -- lookup ---------------------------------------------------------------------

CATALOGUE: dict[str, Callable[[int], ScenarioSpec | CampaignGrid]] = {
    "cli-fleet": cli_fleet,
    "cli-sessions": cli_sessions,
    "cli-obs": cli_obs,
    "demo-24": demo_grid,
    "smoke-4": smoke_grid,
    "sessions-9": sessions_grid,
    "disagg-8": disagg_grid,
    "chaos:hops": chaos_case,
    "ff-100k": ff_100k,
}


def lookup(name: str, seed: int = 42) -> ScenarioSpec | CampaignGrid:
    """Build the catalogue entry ``name`` for ``seed``."""
    if name not in CATALOGUE:
        raise ConfigurationError(
            f"no scenario {name!r} in the catalogue "
            f"(known: {', '.join(CATALOGUE)})")
    return CATALOGUE[name](seed)


def scenario(name: str, seed: int = 42) -> ScenarioSpec:
    """The catalogue scenario ``name``; a grid is refused."""
    entry = lookup(name, seed)
    if isinstance(entry, CampaignGrid):
        raise ConfigurationError(f"{name!r} is a campaign grid: run it "
                                 f"with 'repro campaign {name}'")
    return entry


def grid(name: str, seed: int = 42) -> CampaignGrid:
    """The catalogue grid ``name``; a scenario becomes a one-cell grid."""
    entry = lookup(name, seed)
    return (CampaignGrid(base=entry, name=entry.name)
            if isinstance(entry, ScenarioSpec) else entry)
