"""Catalog shape, scorecard determinism, scenario runs, and the CLI."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaign import ChaosEventSpec
from repro.chaos import CATALOG, catalog, run_case
from repro.chaos.runner import (MODES, PLATFORM_FLEETS, case_spec,
                                run_matrix, scorecard_text)
from repro.errors import ConfigurationError, StateError


def test_catalog_spans_every_layer():
    layers = {s.layer for s in CATALOG}
    assert layers == {"vllm", "hardware", "net", "containers", "wlm",
                      "k8s"}
    names = [s.name for s in CATALOG]
    assert len(names) == len(set(names))


def test_catalog_platform_applicability():
    hpc = {s.name for s in catalog("hpc")}
    k8s = {s.name for s in catalog("k8s")}
    assert "wlm_preemption" in hpc and "wlm_preemption" not in k8s
    assert "pod_eviction" in k8s and "pod_eviction" not in hpc
    shared = hpc & k8s
    assert {"engine_oom", "node_crash", "network_partition",
            "registry_outage"} <= shared
    with pytest.raises(StateError):
        catalog(names=["no_such_scenario"])


def test_platform_fleets_mapping():
    assert PLATFORM_FLEETS == {"hpc": "hops", "k8s": "goodall"}
    with pytest.raises(ValueError):
        run_case(case_spec("engine_oom"), "vax")


def test_case_spec_modes():
    """``quick`` and ``long`` are two rows of one table; anything else
    fails where the spec is built."""
    for mode, (rate, horizon, inject_at, duration) in MODES.items():
        spec = case_spec("node_crash", "goodall", seed=3, mode=mode)
        assert spec.platforms == ("goodall",) and spec.seed == 3
        assert (spec.schedule.rate_rps, spec.horizon) == (rate, horizon)
        assert spec.chaos == (ChaosEventSpec("node_crash", inject_at,
                                             duration),)
    with pytest.raises(ConfigurationError):
        case_spec("node_crash", mode="nightly")


@pytest.mark.parametrize("name,kind", [
    ("engine_oom", "hpc"),
    ("wlm_preemption", "hpc"),
    ("pod_eviction", "k8s"),
    ("gpu_ecc", "k8s"),
])
def test_scenarios_recover(name, kind):
    row, report, res = run_case(case_spec(name, PLATFORM_FLEETS[kind]),
                                kind)
    assert res.recovery_ok, res.summary()
    assert res.mttr_s is not None and 0.0 <= res.mttr_s <= 1800.0
    assert res.error is None
    assert report.slo.errors == res.requests_lost == 0
    assert row["resilience"]["mttr_s"] == pytest.approx(res.mttr_s)
    # Post-fault SLO re-attained: the case's last window probe was good.
    assert res.recovered_at is not None
    # Telemetry caught it too: an alert fired after the injection, no
    # rule paged before it, and the incident log groups the whole arc.
    assert res.detection_delay_alert_s is not None
    assert res.detection_delay_alert_s >= 0.0
    assert res.alerts_fired >= 1 and res.false_alerts == 0
    assert res.incidents is not None
    kinds = {e["kind"] for e in res.incidents["events"]}
    assert "injection" in kinds and "alert" in kinds
    (incident,) = [i for i in res.incidents["incidents"]
                   if i["cause"].startswith("injection:")]
    assert incident["detected_at"] is not None
    assert row["resilience"]["detection_delay_alert_s"] == \
        pytest.approx(res.detection_delay_alert_s)


def test_wlm_preemption_goes_through_flux_too():
    """The same scenario drives FluxManager on El Dorado (ROCm)."""
    row, report, res = run_case(case_spec("wlm_preemption", "eldorado"),
                                "hpc")
    assert res.recovery_ok
    assert res.detail["wlm"] == "flux"
    assert row["fleet_platform"] == "eldorado"


def test_fault_at_the_horizon_is_rejected():
    """A fault at the horizon would fire during the end-of-run drain,
    where only the confirmation probe sees it: it must not score as a
    recovery."""
    with pytest.raises(ConfigurationError):
        dataclasses.replace(case_spec("engine_oom"),
                            chaos=(ChaosEventSpec("engine_oom", 3600.0),))


def test_same_seed_byte_identical_scorecard():
    spec = case_spec("registry_outage", "hops", seed=42, mode="quick")

    def once():
        row, _report, _res = run_case(spec, "hpc")
        return json.dumps(row, sort_keys=True)

    assert once() == once()


def test_matrix_summary_and_sorting():
    scorecard = run_matrix(("hpc",), seed=42, mode="quick",
                           scenarios=["engine_oom", "latency_spike"])
    assert scorecard["schema"] == "chaos_scorecard/v1"
    assert [c["scenario"] for c in scorecard["cases"]] == \
        sorted(c["scenario"] for c in scorecard["cases"])
    summary = scorecard["summary"]
    assert summary["cases"] == 2
    assert summary["recovered"] == 2
    assert summary["mttr_max_s"] is not None
    text = scorecard_text(scorecard)
    assert text.endswith("\n")
    assert json.loads(text) == scorecard


def test_cli_chaos_writes_scorecard(tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "chaos_scorecard.json"
    code = main(["chaos", "--platform", "hpc",
                 "--scenario", "engine_oom", "--out", str(out)])
    assert code == 0
    scorecard = json.loads(out.read_text())
    assert scorecard["platforms"] == ["hpc"]
    assert scorecard["summary"]["recovered"] == 1
    captured = capsys.readouterr().out
    assert "RECOVERED" in captured
