"""Generated specs: each one is refused at construction or plays through.

A first slice of differential scenario fuzzing.  Hypothesis draws the
fleet's names and knobs: router policy, replica platforms (HPC and
Kubernetes), router platform, scrape cadence, disagg, sessions,
KV-memory share, engine scheduler policy, tensor parallelism and the
site's node counts, all legal, or with one of them spoiled, or with a
pair of edits that are each legal alone and refused together (a
cross-field check).  A spoiled spec must raise ``ConfigurationError``
when it is built; a legal one must finish a 60 s ``play()`` with every
arrival accounted for.

Capacity is judged by :func:`_fits`, an oracle written out here: one
replica per node, on nodes with at least ``tensor_parallel_size`` GPUs,
and on each platform that can hold one, the model must fit that
platform's GPU (its weights plus one 65,536-token sequence of KV at
the drawn ``gpu_memory_utilization``).  A draw it refuses must fail at
construction too, and so must an HPC platform without nodes (its
workload manager, and the router, run there).  Tensor parallelism is
drawn from 1, 2 and 4 and ``gpu_memory_utilization`` over its whole
legal range, 0.1 to 1.0, so many draws do not fit.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import ScenarioSpec, ScheduleSpec, SiteSpec
from repro.campaign.runner import play
from repro.campaign.spec import DEFAULT_MODEL, ChaosEventSpec
from repro.core.site import PLATFORM_KINDS
from repro.errors import CapacityError, ConfigurationError
from repro.fleet import AutoscalerConfig
from repro.hardware import gpu_spec
from repro.models import model_card
from repro.models.weights import validate_fit
from repro.services.router import RouterPolicy
from repro.sessions import SessionSpec
from repro.vllm.scheduler import SCHEDULER_POLICIES

#: GPUs per node of each platform, and their model, as the paper's site
#: has them.
GPUS_PER_NODE = {"hops": 4, "eldorado": 4, "goodall": 2, "cee": 4}
GPU_MODEL = {"hops": "H100-SXM-80G", "eldorado": "MI300A-120G",
             "goodall": "H100-NVL-94G", "cee": "A100-SXM-80G"}

#: Legal values of each drawn setting.
VALID = st.fixed_dictionaries({
    "policy": st.sampled_from([p.value for p in RouterPolicy]),
    "platforms": st.lists(st.sampled_from(list(PLATFORM_KINDS)),
                          min_size=1, max_size=2, unique=True).map(tuple),
    "router_platform": st.sampled_from(
        [p for p, kind in PLATFORM_KINDS.items() if kind == "hpc"]),
    "scrape_interval": st.one_of(st.just(0.0), st.floats(5.0, 600.0)),
    "disagg": st.booleans(),
    # The whole legal range, and as often 0.9 and up, where the model
    # fits at every parallelism, so that enough draws play.
    "gpu_memory_utilization": st.one_of(st.floats(0.9, 1.0),
                                        st.floats(0.1, 1.0)),
    "scheduler_policy": st.sampled_from(list(SCHEDULER_POLICIES)),
    "sessions": st.booleans().map(lambda on: SessionSpec(enabled=on)),
    "tensor_parallel_size": st.sampled_from([1, 2, 4]),
    # HPC platforms need a node (their workload managers run there), a
    # Kubernetes platform may have none.
    "site": st.builds(SiteSpec, **{
        f"{p}_nodes": st.integers(1 if kind == "hpc" else 0, 2)
        for p, kind in PLATFORM_KINDS.items()}),
})

#: Values each setting must refuse at construction.
INVALID = {
    "policy": ["bogus", ""],
    "platforms": [("nope",), ("hops", "nope"), ()],
    "router_platform": ["goodall", "cee", "nope"],
    "scrape_interval": [-1.0],
    "gpu_memory_utilization": [0.05, 1.5],
    "scheduler_policy": ["bogus"],
    # 8 is more than any node has.
    "tensor_parallel_size": [0, 8],
    "site": [SiteSpec(hops_nodes=0), SiteSpec(eldorado_nodes=0)],
    # The default initial_replicas=1 is below this autoscaler's floor.
    "autoscaler": [AutoscalerConfig(min_replicas=2, max_replicas=3)],
}

#: Pairs of edits that are each legal on the default spec and refused
#: together, whatever else was drawn.
CROSS = [
    {"initial_replicas": 4, "autoscaler": AutoscalerConfig(max_replicas=3)},
    {"horizon": 30.0, "chaos": (ChaosEventSpec("node_crash", inject_at=45.0),)},
    # goodall's nodes have 2 GPUs each, so none holds a 4-way replica.
    {"tensor_parallel_size": 4, "platforms": ("goodall",)},
    # A workload-manager preemption needs an HPC platform to target.
    {"platforms": ("goodall",),
     "chaos": (ChaosEventSpec("wlm_preemption", 30.0),)},
]

#: At most one setting or one cross pair spoiled per draw, so about half
#: the draws play.
SPOIL = st.one_of(st.none(), st.sampled_from(
    [{f: v} for f in sorted(INVALID) for v in INVALID[f]] + CROSS))


def _spec(**kwargs) -> ScenarioSpec:
    return ScenarioSpec(**{
        "name": "generated", "seed": 5, "horizon": 60.0,
        "schedule": ScheduleSpec(kind="poisson", rate_rps=0.2), **kwargs})


def _model_fits(platform: str, tp: int, utilization: float) -> bool:
    try:
        validate_fit(model_card(DEFAULT_MODEL), gpu_spec(GPU_MODEL[platform]),
                     tp, max_model_len=65536,
                     gpu_memory_utilization=utilization)
    except CapacityError:
        return False
    return True


def _fits(kwargs: dict) -> bool:
    """Whether the drawn site holds the initial pool and the model fits
    wherever a replica can land."""
    site, tp = kwargs["site"], kwargs["tensor_parallel_size"]
    hosts = [p for p in kwargs["platforms"] if GPUS_PER_NODE[p] >= tp]
    if not all(_model_fits(p, tp, kwargs["gpu_memory_utilization"])
               for p in hosts):
        return False
    slots = sum(getattr(site, f"{p}_nodes") for p in hosts)
    return slots >= (2 if kwargs["disagg"] else 1)


@settings(max_examples=60, deadline=None)
@given(VALID, SPOIL)
@example({}, {"policy": "bogus"})
@example({}, {"platforms": ("nope",)})
@example({}, {"router_platform": "goodall"})
@example({}, {"tensor_parallel_size": 16})
@example({}, {"autoscaler": AutoscalerConfig(min_replicas=2, max_replicas=3)})
@example({"platforms": ("goodall",)}, {"site": SiteSpec(goodall_nodes=0)})
@example({"platforms": ("goodall",)}, {"site": SiteSpec(hops_nodes=0)})
@example({"platforms": ("goodall",)}, {"site": SiteSpec(eldorado_nodes=0)})
@example({"platforms": ("cee",), "disagg": True},
         {"site": SiteSpec(cee_nodes=1)})
# Legal settings whose replicas could not start: the model does not fit.
@example({"platforms": ("hops",)}, {"gpu_memory_utilization": 0.3})
@example({"platforms": ("eldorado",)}, {"gpu_memory_utilization": 0.3})
@example({"platforms": ("goodall",), "tensor_parallel_size": 1},
         {"gpu_memory_utilization": 0.5})
# Cross-field pairs, one example each.
@example({}, CROSS[0])
@example({}, CROSS[1])
@example({}, CROSS[2])
@example({}, CROSS[3])
def test_generated_spec_is_refused_or_plays(kwargs, spoil):
    if spoil is not None:
        with pytest.raises(ConfigurationError):
            _spec(**{**kwargs, **spoil})
        return
    if not _fits(kwargs):
        with pytest.raises(ConfigurationError):
            _spec(**kwargs)
        return
    report, fleet, _digest = play(_spec(**kwargs))
    # A session's turns are requests too: count what was submitted.
    assert report.slo.submitted == report.slo.completed + report.slo.errors
    if not kwargs["sessions"].enabled:
        assert report.arrivals == report.slo.submitted
    assert fleet.inflight == 0


@pytest.mark.parametrize("pair", CROSS, ids=lambda pair: "+".join(pair))
def test_each_cross_edit_is_legal_alone(pair):
    """A cross pair spoils nothing field by field: each edit alone
    builds, so only the check that reads both fields refuses the pair."""
    for field, value in pair.items():
        _spec(**{field: value})
    with pytest.raises(ConfigurationError):
        _spec(**pair)
