"""ScenarioSpec: validation, round-trips, hashing, builders, paths."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (ChaosEventSpec, ScenarioSpec, ScheduleSpec,
                            SiteSpec, TenantSpec, coerce_chaos, get_path,
                            set_path)
from repro.errors import ConfigurationError
from repro.fleet import AutoscalerConfig, Fleet
from repro.fleet.traffic import (DiurnalSchedule, FlashCrowdSchedule,
                                 PoissonSchedule)


def test_defaults_validate_and_hash():
    spec = ScenarioSpec()
    assert spec.spec_hash() == ScenarioSpec().spec_hash()
    assert len(spec.spec_hash()) == 12
    assert hash(spec) == hash(ScenarioSpec())   # frozen => hashable


def test_hash_changes_with_any_field():
    base = ScenarioSpec()
    assert set_path(base, "seed", 7).spec_hash() != base.spec_hash()
    assert (set_path(base, "schedule.rate_rps", 0.5).spec_hash()
            != base.spec_hash())


def test_validation_rejects_bad_specs():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(platforms=())
    with pytest.raises(ConfigurationError):
        ScenarioSpec(horizon=0.0)
    with pytest.raises(ConfigurationError):
        ScenarioSpec(initial_replicas=0)
    with pytest.raises(ConfigurationError):
        ScheduleSpec(kind="bursty")
    with pytest.raises(ConfigurationError):
        ScheduleSpec(flash_mult=0.5)
    with pytest.raises(ConfigurationError):
        SiteSpec(hops_nodes=-1)
    with pytest.raises(ConfigurationError):
        ChaosEventSpec("node_crash", inject_at=-1.0)


@pytest.mark.parametrize("knob,value,match", [
    ("tensor_parallel_size", 0, "parallel sizes must be >= 1"),
    ("gpu_memory_utilization", 1.5, "gpu_memory_utilization 1.5 out of range"),
    ("scheduler_policy", "sjf", "unknown scheduler_policy 'sjf'"),
])
def test_engine_knobs_are_checked_as_engine_args(knob, value, match):
    """The spec refuses a bad engine knob with ``EngineArgs``' error."""
    with pytest.raises(ConfigurationError, match=match):
        ScenarioSpec(**{knob: value})


def test_initial_replicas_must_sit_in_the_autoscaler_bounds():
    scaler = AutoscalerConfig(min_replicas=2, max_replicas=3)
    for n in (2, 3):
        spec = ScenarioSpec(initial_replicas=n, autoscaler=scaler)
        assert spec.initial_replicas == n
    for n in (1, 4):
        with pytest.raises(ConfigurationError, match="initial_replicas"):
            ScenarioSpec(initial_replicas=n, autoscaler=scaler)


def test_validation_rejects_unknown_chaos_scenario():
    with pytest.raises(ConfigurationError, match="unknown chaos scenario"):
        ScenarioSpec(chaos=(ChaosEventSpec(scenario="meteor_strike"),))


def test_validation_rejects_late_injection():
    with pytest.raises(ConfigurationError, match="past the"):
        ScenarioSpec(horizon=600.0,
                     chaos=(ChaosEventSpec("node_crash", inject_at=600.0),))


def test_dict_roundtrip_through_json():
    spec = ScenarioSpec(
        name="rt", seed=9, platforms=("hops", "goodall"),
        schedule=ScheduleSpec(kind="diurnal", base_rps=0.1, peak_rps=0.4,
                              flash_mult=3.0, flash_start=600.0),
        tenants=(TenantSpec("chat", 3.0), TenantSpec("batch", 1.0,
                                                     max_total_tokens=8192)),
        chaos=(ChaosEventSpec("node_crash", inject_at=900.0),),
        horizon=7200.0)
    wire = json.loads(json.dumps(spec.to_dict()))
    back = ScenarioSpec.from_dict(wire)
    assert back == spec
    assert back.spec_hash() == spec.spec_hash()


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown spec keys"):
        ScenarioSpec.from_dict({"nmae": "typo"})
    with pytest.raises(ConfigurationError, match="unknown schedule keys"):
        ScenarioSpec.from_dict({"schedule": {"kind": "poisson",
                                             "rps": 1.0}})


def test_file_roundtrip_json_and_yaml(tmp_path):
    spec = ScenarioSpec(name="file-rt", seed=3)
    jpath = tmp_path / "spec.json"
    spec.to_file(jpath)
    assert ScenarioSpec.from_file(jpath) == spec
    ypath = tmp_path / "spec.yaml"
    spec.to_file(ypath)
    assert ScenarioSpec.from_file(ypath) == spec


def test_schedule_build_poisson_diurnal_flash():
    assert isinstance(ScheduleSpec(kind="poisson", rate_rps=1.0).build(),
                      PoissonSchedule)
    assert isinstance(ScheduleSpec(kind="diurnal").build(), DiurnalSchedule)
    flash = ScheduleSpec(kind="diurnal", flash_mult=5.0,
                         flash_start=100.0, flash_duration=60.0).build()
    assert isinstance(flash, FlashCrowdSchedule)
    assert isinstance(flash.inner, DiurnalSchedule)
    assert flash.multiplier == 5.0


def test_coerce_chaos_spellings():
    assert coerce_chaos(None) == ()
    assert coerce_chaos("none") == ()
    assert coerce_chaos([]) == ()
    single = coerce_chaos("node_crash")
    assert single == (ChaosEventSpec(scenario="node_crash"),)
    mixed = coerce_chaos(["engine_oom",
                          {"scenario": "pod_eviction", "inject_at": 30.0}])
    assert mixed[0].scenario == "engine_oom"
    assert mixed[1] == ChaosEventSpec("pod_eviction", inject_at=30.0)
    with pytest.raises(ConfigurationError):
        coerce_chaos([42])


def test_get_set_path_nested():
    spec = ScenarioSpec()
    assert get_path(spec, "schedule.kind") == "poisson"
    out = set_path(spec, "schedule.kind", "diurnal")
    assert out.schedule.kind == "diurnal"
    assert spec.schedule.kind == "poisson"       # original untouched
    assert set_path(spec, "platforms", "goodall").platforms == ("goodall",)
    assert set_path(spec, "slo.ttft_target", 2.0).slo.ttft_target == 2.0
    with pytest.raises(ConfigurationError, match="no spec field"):
        get_path(spec, "schedule.nope")
    with pytest.raises(ConfigurationError, match="no spec field"):
        set_path(spec, "nope.kind", 1)


def test_build_site_and_fleet_honour_spec():
    spec = ScenarioSpec(
        name="build", seed=77,
        site=SiteSpec(hops_nodes=3, eldorado_nodes=2, goodall_nodes=2,
                      cee_nodes=1),
        platforms=("hops",), policy="round-robin",
        tensor_parallel_size=4)
    fleet = Fleet(spec)
    assert len(fleet.site.platform("hops").nodes) == 3
    assert fleet.spec is spec
    assert fleet.router_config.policy.value == "round-robin"
    assert fleet.spec.tensor_parallel_size == 4
    assert fleet.slo.spec == spec.slo


def test_build_mix_default_and_tenants():
    spec = ScenarioSpec()
    site = spec.build_site()
    assert spec.build_mix(site.kernel) is None
    spec2 = ScenarioSpec(tenants=(TenantSpec("a", 1.0),
                                  TenantSpec("b", 2.0)))
    mix = spec2.build_mix(site.kernel)
    assert [t.name for t in mix.tenants] == ["a", "b"]


def test_duplicate_tenants_rejected():
    with pytest.raises(ConfigurationError, match="duplicate tenant"):
        ScenarioSpec(tenants=(TenantSpec("a"), TenantSpec("a")))
