"""Sessions through the campaign stack: spec round-trips, sweep axes,
scorecard rows, and byte determinism across worker counts."""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign import (CampaignGrid, CampaignRunner, ScenarioSpec,
                            ScheduleSpec, SiteSpec, get_path,
                            scorecard_text, set_path)
from repro.campaign.catalogue import sessions_grid
from repro.campaign.runner import run_cell
from repro.errors import ConfigurationError
from repro.fleet import AutoscalerConfig, Fleet, SloSpec
from repro.sessions import SessionSpec


def _session_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="sess-test", seed=11, horizon=600.0, initial_replicas=2,
        platforms=("hops",), policy="cache-affinity",
        site=SiteSpec(hops_nodes=4, eldorado_nodes=2, goodall_nodes=3,
                      cee_nodes=1),
        schedule=ScheduleSpec(kind="poisson", rate_rps=0.05),
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=2),
        sessions=SessionSpec(enabled=True, mean_turns=4, min_turns=2,
                             think_mean_s=10.0))
    base.update(overrides)
    return ScenarioSpec(**base)


# -- spec plumbing ---------------------------------------------------------------


def test_sessions_round_trip_through_dict():
    spec = _session_spec()
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.sessions.enabled is True
    assert clone.spec_hash() == spec.spec_hash()


def test_sessions_dict_in_from_dict_and_unknown_keys():
    data = _session_spec().to_dict()
    data["sessions"]["mean_turns"] = 7
    clone = ScenarioSpec.from_dict(data)
    assert clone.sessions.mean_turns == 7.0
    data["sessions"]["bogus"] = 1
    with pytest.raises(ConfigurationError):
        ScenarioSpec.from_dict(data)


def test_set_path_sessions_axes():
    spec = _session_spec()
    assert get_path(spec, "sessions.mean_turns") == 4.0
    bumped = set_path(spec, "sessions.mean_turns", 6)
    assert bumped.sessions.mean_turns == 6.0
    off = set_path(spec, "sessions.prefix_caching", "false")
    assert off.sessions.prefix_caching is False
    replaced = set_path(spec, "sessions",
                        {"enabled": True, "mean_turns": 3})
    assert replaced.sessions.mean_turns == 3.0


def test_gpu_memory_utilization_validated_and_swept():
    with pytest.raises(ConfigurationError):
        _session_spec(gpu_memory_utilization=0.05)
    small = set_path(_session_spec(), "gpu_memory_utilization", 0.5)
    assert small.gpu_memory_utilization == 0.5


#: ``vllm serve`` commands as the parent of the single-declaration fleet
#: rendered them, from the image on: the engine knobs a spec sets must
#: reach every replica's command byte for byte, and only non-default
#: knobs may appear.
_SERVE = ("vllm/vllm-openai:v0.9.1 serve "
          "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16 "
          "--tensor_parallel_size=2 --disable-log-requests ")


@pytest.mark.parametrize("overrides, commands", [
    ({"sessions": SessionSpec(enabled=True)},
     [("unified", _SERVE + "--enable-prefix-caching --max-model-len=65536")]),
    ({"disagg": True},
     [("prefill", _SERVE + "--max-model-len=65536 --disagg-role=prefill"),
      ("decode", _SERVE + "--max-model-len=65536 --disagg-role=decode")]),
    ({"gpu_memory_utilization": 0.5, "scheduler_policy": "priority"},
     [("unified", _SERVE + "--gpu_memory_utilization=0.5 "
       "--max-model-len=65536 --scheduler-policy=priority")]),
    ({"sessions": SessionSpec(enabled=True, prefix_caching=False)},
     [("unified", _SERVE + "--max-model-len=65536")]),
], ids=["sessions", "disagg", "knobs", "cold"])
def test_engine_params_render_into_vllm_serve(overrides, commands):
    spec = ScenarioSpec(**overrides)
    fleet = Fleet(spec)
    kernel = fleet.kernel
    kernel.run(until=kernel.spawn(fleet.start()))
    rendered = []
    for replica in fleet.replicas:
        argv = replica.deployment.artifact
        rendered.append(
            (replica.role, " ".join(argv[argv.index("serve") - 1:])))
    assert rendered == commands


def test_sessions_grid_shape():
    grid = sessions_grid(seed=1)
    cells = grid.expand()
    assert len(cells) == 9
    names = [spec.name for spec, _ in cells]
    assert "sessions/small-kv" in names
    assert all(spec.sessions.enabled for spec, _ in cells)


# -- cells and determinism -------------------------------------------------------


def test_run_cell_carries_session_scorecard():
    row = run_cell(_session_spec())
    assert row["errors"] == 0
    assert row["sessions"]["started"] == row["arrivals"]
    assert row["sessions"]["turns_ok"] > row["arrivals"]
    assert row["cache"]["hit_rate"] > 0.3
    assert row["turn_ttft"]["later"]["n"] > 0
    assert row["turn_ttft"]["later"]["mean_s"] \
        < row["turn_ttft"]["first"]["mean_s"]


def test_chaos_cell_still_plays_the_session_workload():
    """A spec with chaos events AND sessions must run conversations
    through the fault, not silently fall back to single-shot traffic."""
    spec = _session_spec(
        name="sess-chaos",
        chaos=({"scenario": "node_crash", "inject_at": 200.0,
                "fault_duration": 150.0},))
    row = run_cell(spec)
    assert row["chaos"] == ["node_crash"]
    assert row["sessions"]["turns_ok"] > 0
    assert row["cache"]["hit_rate"] > 0.0
    assert isinstance(row["resilience"], dict)


def test_prefix_caching_margin_shows_in_cells():
    warm = run_cell(_session_spec())
    cold_sessions = dataclasses.replace(
        _session_spec().sessions, prefix_caching=False)
    cold = run_cell(_session_spec(name="sess-cold",
                                  policy="least-outstanding",
                                  sessions=cold_sessions))
    assert cold["cache"]["hit_rate"] == 0.0
    assert warm["turn_ttft"]["later"]["mean_s"] * 2 \
        <= cold["turn_ttft"]["later"]["mean_s"]


@pytest.mark.parametrize("workers", [1, 2])
def test_session_scorecards_byte_identical_across_worker_counts(workers):
    """Turn ordering, caching, and affinity must be deterministic: a
    pool worker reproduces the inline scorecard byte for byte."""
    grid = CampaignGrid(
        base=_session_spec(),
        axes={"sessions.prefix_caching": [True, False]},
        name="sess-det")
    scorecard = CampaignRunner(grid, workers=workers).run()
    inline = CampaignRunner(grid, workers=1).run()
    assert scorecard_text(scorecard) == scorecard_text(inline)
    for row in scorecard["cells"]:
        assert "error" not in row
