"""Generated specs: each one is refused at construction or plays through.

A first slice of differential scenario fuzzing.  Hypothesis draws the
fleet's names and knobs: router policy, replica platforms, router
platform, scrape cadence, disagg, KV-memory share and engine scheduler
policy, all legal, or with one of them spoiled.  A spoiled spec must
raise ``ConfigurationError`` when it is built; a legal one must finish
a 60 s ``play()`` on a small site with every arrival accounted for.

Capacity stays out of the strategy: the site has room for any drawn
placement, and ``gpu_memory_utilization`` is drawn where the model's
weights fit (0.5 and up) or outside the legal range.  Whether a legal
spec fits its site is checked only when replicas deploy.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import ScenarioSpec, ScheduleSpec, SiteSpec
from repro.campaign.runner import play
from repro.core.site import PLATFORM_KINDS
from repro.errors import ConfigurationError
from repro.services.router import RouterPolicy
from repro.vllm.scheduler import SCHEDULER_POLICIES

#: Legal values of each drawn setting.
VALID = st.fixed_dictionaries({
    "policy": st.sampled_from([p.value for p in RouterPolicy]),
    "platforms": st.lists(st.sampled_from(list(PLATFORM_KINDS)),
                          min_size=1, max_size=2, unique=True).map(tuple),
    "router_platform": st.sampled_from(
        [p for p, kind in PLATFORM_KINDS.items() if kind == "hpc"]),
    "scrape_interval": st.one_of(st.just(0.0), st.floats(5.0, 600.0)),
    "disagg": st.booleans(),
    "gpu_memory_utilization": st.floats(0.5, 1.0),
    "scheduler_policy": st.sampled_from(list(SCHEDULER_POLICIES)),
})

#: Values each setting must refuse at construction.
INVALID = {
    "policy": ["bogus", ""],
    "platforms": [("nope",), ("hops", "nope"), ()],
    "router_platform": ["goodall", "cee", "nope"],
    "scrape_interval": [-1.0],
    "gpu_memory_utilization": [0.05, 1.5],
    "scheduler_policy": ["bogus"],
}

#: At most one setting spoiled per draw, so most draws play.
SPOIL = st.one_of(st.none(), st.sampled_from(sorted(INVALID)).flatmap(
    lambda f: st.tuples(st.just(f), st.sampled_from(INVALID[f]))))


def _spec(**kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name="generated", seed=5, horizon=60.0,
        site=SiteSpec(hops_nodes=2, eldorado_nodes=2, goodall_nodes=2,
                      cee_nodes=2),
        schedule=ScheduleSpec(kind="poisson", rate_rps=0.2), **kwargs)


@settings(max_examples=40, deadline=None)
@given(VALID, SPOIL)
@example({}, ("policy", "bogus"))
@example({}, ("platforms", ("nope",)))
@example({}, ("router_platform", "goodall"))
def test_generated_spec_is_refused_or_plays(kwargs, spoil):
    if spoil is not None:
        field, value = spoil
        with pytest.raises(ConfigurationError):
            _spec(**{**kwargs, field: value})
        return
    report, fleet, _digest = play(_spec(**kwargs))
    assert report.arrivals == report.slo.completed + report.slo.errors
    assert fleet.inflight == 0
