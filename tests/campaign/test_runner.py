"""Grid expansion, the parallel runner, and scorecard determinism."""

from __future__ import annotations

import pytest

from repro.campaign import (CampaignGrid, CampaignRunner, ScenarioSpec,
                            ScheduleSpec, SiteSpec, run_cell, scorecard_text)
from repro.campaign.catalogue import demo_grid, smoke_grid
from repro.campaign import runner as runner_module
from repro.errors import ConfigurationError, StateError

SMALL_SITE = SiteSpec(hops_nodes=4, eldorado_nodes=2, goodall_nodes=3,
                      cee_nodes=1)


def _tiny_base(**kw) -> ScenarioSpec:
    defaults = dict(
        name="tiny", seed=11, horizon=600.0, site=SMALL_SITE,
        schedule=ScheduleSpec(kind="poisson", rate_rps=0.05))
    defaults.update(kw)
    return ScenarioSpec(**defaults)


# -- expansion ----------------------------------------------------------------

def test_expand_cartesian_product_and_labels():
    grid = CampaignGrid(base=_tiny_base(),
                        axes={"seed": [1, 2], "platforms": ["hops",
                                                            "goodall"]})
    cells = grid.expand()
    assert len(cells) == 4
    names = [spec.name for spec, _ in cells]
    assert names == sorted(names) or len(set(names)) == 4
    spec, axes = cells[0]
    assert set(axes) == {"seed", "platforms"}
    assert {s.seed for s, _ in cells} == {1, 2}
    assert {s.platforms for s, _ in cells} == {("hops",), ("goodall",)}


def test_expand_explicit_cells_and_duplicates():
    grid = CampaignGrid(base=_tiny_base(),
                        cells=[{"name": "special", "seed": 99}])
    cells = grid.expand()
    assert len(cells) == 1
    assert cells[0][0].seed == 99
    grid.cells.append({"name": "special", "seed": 100})
    with pytest.raises(ConfigurationError, match="duplicate cell names"):
        grid.expand()
    with pytest.raises(ConfigurationError, match="need a 'name'"):
        CampaignGrid(base=_tiny_base(), cells=[{"seed": 1}]).expand()


def test_expand_rejects_empty_axis():
    grid = CampaignGrid(base=_tiny_base(), axes={"seed": []})
    with pytest.raises(ConfigurationError, match="has no values"):
        grid.expand()


def test_grid_from_dict_roundtrip():
    grid = CampaignGrid.from_dict({
        "name": "g", "base": {"name": "b", "horizon": 600.0},
        "axes": {"seed": [1, 2]},
        "cells": [{"name": "extra", "seed": 5}]})
    assert grid.name == "g"
    assert len(grid.expand()) == 3
    with pytest.raises(ConfigurationError, match="unknown campaign keys"):
        CampaignGrid.from_dict({"bse": {}})


def test_builtin_grids_have_expected_shape():
    demo = demo_grid()
    assert len(demo.expand()) == 24        # 2 x 2 x 2 x 3
    smoke = smoke_grid()
    assert len(smoke.expand()) == 4


# -- single cells -------------------------------------------------------------

def test_run_cell_row_shape():
    row = run_cell(_tiny_base())
    assert row["cell"] == "tiny"
    assert row["arrivals"] > 0
    assert row["errors"] == 0
    assert 0.0 <= row["attainment"] <= 1.0
    assert row["replica_seconds"] > 0
    assert row["resilience"] is None
    assert len(row["trace_digest"]) == 64


def test_run_cell_chaos_attaches_resilience():
    spec = _tiny_base(
        name="tiny-chaos", initial_replicas=2, horizon=900.0,
        chaos=({"scenario": "engine_oom", "inject_at": 200.0,
                "fault_duration": 120.0},))
    spec = ScenarioSpec.from_dict(spec.to_dict())   # exercise wire path
    row = run_cell(spec)
    assert row["chaos"] == ["engine_oom"]
    assert isinstance(row["resilience"], dict)
    assert row["resilience"]["scenario"] == "engine_oom"


def test_run_cell_gameday_for_multiple_faults():
    spec = _tiny_base(
        name="tiny-gameday", initial_replicas=2, horizon=1200.0,
        chaos=({"scenario": "engine_oom", "inject_at": 200.0,
                "fault_duration": 100.0},
               {"scenario": "latency_spike", "inject_at": 600.0,
                "fault_duration": 100.0}))
    row = run_cell(spec)
    assert row["chaos"] == ["engine_oom", "latency_spike"]
    segments = row["resilience"]["gameday"]
    assert [s["scenario"] for s in segments] == ["engine_oom",
                                                 "latency_spike"]
    # The orchestrator adds whole-cell verdicts next to the segments so
    # scorecard aggregates count gameday cells like single-fault cells.
    assert row["resilience"]["recovery_ok"] == all(
        s["recovered_at_s"] is not None for s in segments)
    if row["resilience"]["recovery_ok"]:
        assert row["resilience"]["mttr_s"] == max(
            s["mttr_s"] for s in segments)


# -- the campaign -------------------------------------------------------------

@pytest.fixture(scope="module")
def small_campaign():
    grid = CampaignGrid(
        base=_tiny_base(),
        axes={"seed": [11, 12], "schedule.kind": ["poisson", "diurnal"]},
        name="small")
    return grid, CampaignRunner(grid, workers=1).run()


def test_campaign_scorecard_shape(small_campaign):
    grid, scorecard = small_campaign
    assert scorecard["schema"] == "campaign_scorecard/v1"
    assert scorecard["campaign"] == "small"
    assert len(scorecard["cells"]) == 4
    cells = [r["cell"] for r in scorecard["cells"]]
    assert cells == sorted(cells)
    assert scorecard["summary"]["cells"] == 4
    assert scorecard["summary"]["failed"] == 0


def test_campaign_axis_aggregates(small_campaign):
    _, scorecard = small_campaign
    agg = scorecard["aggregates"]
    assert set(agg) == {"seed", "schedule.kind"}
    assert set(agg["schedule.kind"]) == {"poisson", "diurnal"}
    for stats in agg["schedule.kind"].values():
        assert stats["cells"] == 2
        assert stats["arrivals"] > 0
        assert stats["replica_seconds_mean"] > 0


def test_pool_sizes_are_byte_identical(small_campaign):
    """The acceptance property: worker count never leaks into bytes."""
    grid, scorecard_serial = small_campaign
    scorecard_pooled = CampaignRunner(grid, workers=2).run()
    assert (scorecard_text(scorecard_pooled)
            == scorecard_text(scorecard_serial))


def test_failed_cell_becomes_error_row(monkeypatch):
    # tensor_parallel_size larger than any node is refused when the spec
    # is built, so a cell that dies mid-run is staged by failing its run.
    with pytest.raises(ConfigurationError):
        _tiny_base(name="doomed", tensor_parallel_size=64)

    def doomed(spec, observability=True):
        raise StateError(f"{spec.name} lost every replica")

    monkeypatch.setattr(runner_module, "run_cell", doomed)
    grid = CampaignGrid(base=_tiny_base(name="doomed"), name="doomed")
    scorecard = CampaignRunner(grid, workers=1).run()
    assert scorecard["summary"]["failed"] == 1
    assert "error" in scorecard["cells"][0]
    assert scorecard["cells"][0]["error"].startswith("StateError: doomed")


def test_runner_rejects_bad_workers():
    with pytest.raises(ConfigurationError):
        CampaignRunner(CampaignGrid(base=_tiny_base()), workers=0)


def test_pool_reports_cells_in_expand_order():
    """Per-cell progress comes in cell order, not in finish order: the
    long cell is first, so a pool that reports rows as they finish
    would report the short one first."""
    grid = CampaignGrid(base=_tiny_base(), axes={"horizon": [3600.0, 60.0]},
                        name="order")
    seen = []
    CampaignRunner(grid, workers=2).run(on_cell=seen.append)
    assert [r["cell"] for r in seen] == [s.name for s, _ in grid.expand()]
