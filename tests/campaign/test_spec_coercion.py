"""One coercion point: every spelling of a setting gives one spec.

``ScenarioSpec.__post_init__`` turns nested mappings, bare names and
bools into typed values, and ``from_dict``, ``set_path``, explicit grid
cells and grid axes all construct through it.  Each spelling below must
give a spec equal to the typed one, with the same ``spec_hash``, on
every path; an unknown nested key must raise ``ConfigurationError``
when the spec is built, never mid-run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign import (CampaignGrid, ChaosEventSpec, ScenarioSpec,
                            ScheduleSpec, SiteSpec, TenantSpec, get_path,
                            run_cell, set_path)
from repro.errors import ConfigurationError
from repro.fleet import AutoscalerConfig, SloSpec
from repro.fleet.fleet import DisaggSpec
from repro.services.router import RouterPolicy
from repro.sessions import SessionSpec

BASE = ScenarioSpec(name="coerce", horizon=1800.0)

#: ``(field, loose spelling, typed value)``.
SPELLINGS = [
    ("site", {"hops_nodes": 3}, SiteSpec(hops_nodes=3)),
    ("schedule", {"kind": "pulse", "rate_rps": 0.5},
     ScheduleSpec(kind="pulse", rate_rps=0.5)),
    ("slo", {"ttft_target": 3.0}, SloSpec(ttft_target=3.0)),
    ("autoscaler", {"min_replicas": 1, "max_replicas": 5},
     AutoscalerConfig(min_replicas=1, max_replicas=5)),
    ("sessions", {"enabled": True}, SessionSpec(enabled=True)),
    ("disagg", {"enabled": True, "prefill_replicas": 2},
     DisaggSpec(enabled=True, prefill_replicas=2)),
    ("disagg", True, DisaggSpec(enabled=True)),
    ("platforms", "goodall", ("goodall",)),
    ("platforms", ["hops", "goodall"], ("hops", "goodall")),
    ("chaos", "node_crash", (ChaosEventSpec("node_crash"),)),
    ("chaos", {"scenario": "engine_oom", "inject_at": 60.0},
     (ChaosEventSpec("engine_oom", inject_at=60.0),)),
    ("chaos", "none", ()),
    ("tenants", [{"name": "a"}, {"name": "b", "weight": 2.0}],
     (TenantSpec("a"), TenantSpec("b", weight=2.0))),
]

#: The nested spec fields a mapping may spell.
NESTED = ("site", "schedule", "slo", "autoscaler", "sessions", "disagg")


def _spellings(field: str, loose) -> list[ScenarioSpec]:
    """``loose`` through the constructor, from_dict, set_path, an
    explicit grid cell and a grid axis."""
    axis, _ = CampaignGrid(base=BASE, axes={field: [loose]}).expand()[0]
    cell, _ = CampaignGrid(
        base=BASE, cells=[{"name": BASE.name, field: loose}]).expand()[0]
    return [
        ScenarioSpec(name=BASE.name, horizon=BASE.horizon, **{field: loose}),
        ScenarioSpec.from_dict({**BASE.to_dict(), field: loose}),
        set_path(BASE, field, loose),
        cell,
        dataclasses.replace(axis, name=BASE.name),
    ]


@pytest.mark.parametrize("field,loose,typed", SPELLINGS,
                         ids=[f"{f}-{i}" for i, (f, _l, _t)
                              in enumerate(SPELLINGS)])
def test_every_path_gives_the_typed_spec(field, loose, typed):
    want = dataclasses.replace(BASE, **{field: typed})
    for spec in _spellings(field, loose):
        assert spec == want
        assert spec.spec_hash() == want.spec_hash()


def test_dict_roundtrip_is_the_identity_on_coerced_specs():
    spec = ScenarioSpec(name="coerce", horizon=1800.0,
                        **{field: loose for field, loose, _t in SPELLINGS
                           if field not in ("chaos", "disagg")})
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_dotted_path_reaches_into_a_dict_spelled_field():
    spec = set_path(BASE, "slo", {"ttft_target": 3.0})
    assert set_path(spec, "slo.e2e_target", 60.0).slo == SloSpec(
        ttft_target=3.0, e2e_target=60.0)


@pytest.mark.parametrize("field", NESTED)
def test_unknown_nested_key_fails_at_construction(field):
    bad = {"bogus": 1}
    for build in (lambda: ScenarioSpec(**{field: bad}),
                  lambda: ScenarioSpec.from_dict({field: bad}),
                  lambda: set_path(BASE, field, bad)):
        with pytest.raises(ConfigurationError, match=f"unknown {field} keys"):
            build()


def test_unknown_tenant_key_fails_at_construction():
    with pytest.raises(ConfigurationError, match="unknown tenant keys"):
        ScenarioSpec(tenants=[{"name": "a", "bogus": 1}])


def test_a_dict_spelled_slo_runs():
    """The spelling that used to build fine and fail mid-run."""
    spec = set_path(ScenarioSpec(horizon=300.0), "slo", {"ttft_target": 3.0})
    row = run_cell(spec)
    assert row["errors"] == 0 and row["completed"] > 0


#: ``(field, name the site does not have)``: each spec used to build
#: fine and fail later, in ``build_fleet`` or mid-``play()``.
BAD_NAMES = [
    ("policy", "bogus"),
    ("platforms", ("nope",)),
    ("platforms", "nope"),
    ("platforms", ["hops", "nope"]),
    ("router_platform", "nope"),
    ("router_platform", "goodall"),     # Kubernetes: no podman router
    ("router_platform", "cee"),
]


@pytest.mark.parametrize("field,bad", BAD_NAMES,
                         ids=[f"{f}-{i}" for i, (f, _b)
                              in enumerate(BAD_NAMES)])
def test_bad_fleet_name_fails_at_construction(field, bad):
    for build in (lambda: ScenarioSpec(**{field: bad}),
                  lambda: ScenarioSpec.from_dict({field: bad}),
                  lambda: set_path(BASE, field, bad),
                  lambda: CampaignGrid(base=BASE,
                                       axes={field: [bad]}).expand()):
        with pytest.raises(ConfigurationError, match=field):
            build()


def test_policy_is_validated_but_stored_as_the_plain_string():
    typed = ScenarioSpec(policy=RouterPolicy.ROUND_ROBIN)
    plain = ScenarioSpec(policy="round-robin")
    assert type(typed.policy) is str
    assert typed == plain and typed.spec_hash() == plain.spec_hash()


# -- leaf values: one hash per setting, whatever its spelling --------------------

#: ``(dotted path, loose spelling, typed value)`` for scalar fields.
LEAVES = [
    ("horizon", 3600, 3600.0),
    ("horizon", "3600", 3600.0),
    ("horizon", "3.6e3", 3600.0),
    ("schedule.rate_rps", 1, 1.0),
    ("schedule.rate_rps", "1.0", 1.0),
    ("seed", "7", 7),
    ("seed", 7.0, 7),
    ("autoscaler.max_replicas", "5", 5),
    ("fast_forward", "False", False),
    ("fast_forward", "off", False),
    ("sessions.prefix_caching", "no", False),
    ("sessions.mean_turns", 4, 4.0),
    ("platforms", "hops+goodall", ("hops", "goodall")),
    ("chaos", "node_crash+engine_oom",
     (ChaosEventSpec("node_crash"), ChaosEventSpec("engine_oom"))),
]


@pytest.mark.parametrize("path,loose,typed", LEAVES,
                         ids=[f"{p}-{i}" for i, (p, _l, _t)
                              in enumerate(LEAVES)])
def test_every_leaf_spelling_gives_one_hash(path, loose, typed):
    want = set_path(BASE, path, typed)
    got = set_path(BASE, path, loose)
    assert got == want and got.spec_hash() == want.spec_hash()
    value = get_path(got, path)
    assert type(value) is type(typed) and value == typed


def test_constructor_casts_ints_in_float_fields():
    """``horizon=3600`` used to compare equal to ``3600.0`` but hash
    differently."""
    loose = ScenarioSpec(horizon=3600,
                         schedule=ScheduleSpec(rate_rps=1),
                         sessions=SessionSpec(mean_turns=4),
                         chaos=[{"scenario": "node_crash", "inject_at": 60}])
    typed = ScenarioSpec(horizon=3600.0,
                         schedule=ScheduleSpec(rate_rps=1.0),
                         sessions=SessionSpec(mean_turns=4.0),
                         chaos=[ChaosEventSpec("node_crash", 60.0)])
    assert loose.spec_hash() == typed.spec_hash()
    assert isinstance(loose.schedule.rate_rps, float)


def test_string_axis_values_are_typed_and_labelled_by_value():
    """A ``--axis fast_forward=False`` cell used to run with the truthy
    string ``'False'``; a ``disagg`` string axis used to crash."""
    grid = CampaignGrid(base=BASE, axes={
        "fast_forward": ["False"], "disagg": ["True"],
        "schedule.rate_rps": ["1.0"]})
    ((spec, axes),) = grid.expand()
    assert spec.fast_forward is False
    assert spec.disagg == DisaggSpec(enabled=True)
    assert axes == {"fast_forward": "False", "disagg": "True",
                    "schedule.rate_rps": "1"}
    typed = CampaignGrid(base=BASE, axes={
        "fast_forward": [False], "disagg": [True],
        "schedule.rate_rps": [1.0]}).expand()[0][0]
    assert spec.spec_hash() == typed.spec_hash()


@pytest.mark.parametrize("path,bad", [
    ("horizon", "soon"),
    ("horizon", "nan"),
    ("seed", "4.5"),
    ("seed", 4.5),
    ("autoscaler.max_replicas", True),
    ("fast_forward", "maybe"),
    ("disagg", "maybe"),
    ("slo.ttft_target", [1.0]),
])
def test_bad_leaf_spelling_raises(path, bad):
    with pytest.raises(ConfigurationError):
        set_path(BASE, path, bad)


def test_non_finite_numbers_fail_on_every_path():
    for build in (lambda: ScenarioSpec(horizon=float("nan")),
                  lambda: ScenarioSpec(slo=SloSpec(window=float("inf"))),
                  lambda: ScenarioSpec.from_dict({"horizon": float("inf")}),
                  lambda: set_path(BASE, "schedule.rate_rps", "inf")):
        with pytest.raises(ConfigurationError, match="finite"):
            build()
