"""Golden pins for the fleet's per-request data path.

Four short campaign cells cover every shape a request can take: plain
open-loop Poisson traffic over HPC and K8s replicas, closed-loop
sessions through a node crash (cache-affinity routing plus failover),
disaggregated prefill/decode dispatch with its fabric KV handoff, and a
chaos-matrix case whose engine OOM makes the router fail requests over.
Each cell's trace, span, metrics, scrape, alert, attribution and
incident digests are checked in: a change to how requests travel
client -> router -> backend that moves any of them is a behavior
change, not a refactor.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign.runner import disagg_grid, run_cell, sessions_grid
from repro.campaign.spec import (ChaosEventSpec, ScenarioSpec, ScheduleSpec,
                                 SiteSpec)
from repro.chaos.runner import ChaosRunConfig, case_spec
from repro.fleet import AutoscalerConfig, SloSpec

SPECS = {
    "poisson": ScenarioSpec(
        name="golden-poisson", seed=7, horizon=900.0, initial_replicas=2,
        platforms=("hops", "goodall"),
        site=SiteSpec(hops_nodes=6, eldorado_nodes=2, goodall_nodes=4,
                      cee_nodes=1),
        schedule=ScheduleSpec(kind="poisson", rate_rps=1.0),
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3)),
    "sessions_crash": dataclasses.replace(
        sessions_grid(7).base, name="golden-sessions", horizon=900.0,
        chaos=(ChaosEventSpec("node_crash", inject_at=300.0,
                              fault_duration=200.0),)),
    "disagg": dataclasses.replace(
        disagg_grid(7).base, name="golden-disagg", horizon=600.0,
        disagg=True),
    "chaos": dataclasses.replace(
        case_spec(ChaosRunConfig(seed=7, horizon=1200.0), "hops"),
        chaos=(ChaosEventSpec("engine_oom", inject_at=300.0,
                              fault_duration=300.0),)),
}

GOLDEN = {
    "poisson": {
        "arrivals": 870, "completed": 870, "errors": 0,
        "trace": "5291f61d98a2bdd11331bcc30e7c166d"
                 "f545d77aae31dcf09499c32b53850621",
        "spans": "bb063ac8ce7ea4b8314cd005815cbe89"
                 "7d9d8e8f407a71acf005b38910cd50d4",
        "metrics": "d2f3aaf53c4baf38b468e42c453126bb"
                   "ab8707f63df1829f536feb8cfb4a9fbf",
        "scrape": "d44bf072ba77403dea2b08b49405f916"
                  "907b58ab2de3d3aaa8828fff4ee91388",
        "alerts": "aaba1a04f694e686e5a5231fd8f4f59d"
                  "11c115bc52a40eb042b03e2203fb9301",
        "attribution": "5bbb6ddde4a78556bca1bbaf7111a865"
                       "3c06172fa8f19afbf62953a8beca8651",
        "incidents": None,
    },
    "sessions_crash": {
        "arrivals": 203, "completed": 909, "errors": 0,
        "trace": "b7bfb80edf65880a88decdc056f0f8e9"
                 "34898d1d63665652e7f60018f7afcf2b",
        "spans": "a16fc66f32c238e3618292ffc220959b"
                 "dd0483bee9098db520140c5eb9d55652",
        "metrics": "2441994e29a8927a0721504002d5f33b"
                   "b2bdecdca0197c510af70d2d665b63ce",
        "scrape": "c8b228395025c411536b5c92b5755529"
                  "acd9cec66cc69bfa0e6f5e3a3e94eda0",
        "alerts": "8b2dd5aaf7a2cd89ceb3981c14f84e9f"
                  "56fe7abc158b0b4631db648cd60fd6e7",
        "attribution": "ee71bfaa9d62df42c2851efc657c420b"
                       "474ccb579f354f33f3a4cab6b7fb1493",
        "incidents": "9f25fdd221e75397fcf45701011548dd"
                     "8b883f194a32d853ba095a083e438c6f",
    },
    "disagg": {
        "arrivals": 573, "completed": 573, "errors": 0,
        "trace": "cc1ca8dab949367d947cc6aacd2c7e92"
                 "927dcbe91f8617519fbad1b16786d61f",
        "spans": "fe59c1d3404d0581afe90f3d938176e7"
                 "3e6586fc63c8c6272d9873095c3def0a",
        "metrics": "112a8d35713480e9553b22bd9067f685"
                   "e28b4f3bff106898aea31b441d0410bb",
        "scrape": "f529d635c8597cd9833d29f303b61cd2"
                  "a5630d67ddda0be38079a041829fd2d7",
        "alerts": "aaba1a04f694e686e5a5231fd8f4f59d"
                  "11c115bc52a40eb042b03e2203fb9301",
        "attribution": "0d86cf1a1b7fe6b50b1bf4991f59e494"
                       "fe74eecfa3fcec72b21d9ff7899280b3",
        "incidents": None,
    },
    "chaos": {
        "arrivals": 193, "completed": 193, "errors": 0,
        "trace": "c49e1e2dae423a096a91edbcae0f2d85"
                 "233f0965037d232a24c035428c14da41",
        "spans": "a87f51703e4fcdb8b5ded22da196504a"
                 "a835f20ce9e82fdc7bff586ce390d6f4",
        "metrics": "c04391dc96b922813cee2b25b741bd69"
                   "af16940cb2fc39b71d1c3d535afe44ef",
        "scrape": "4a6687ee3569bbf0937ca8412cb9eeaf"
                  "3d4f70b3ae4cb632fbf78c421935efef",
        "alerts": "232c7f61637c45c4bb5b86bd48c68530"
                  "5a71c63bbcbd72d17d46741bfa483bce",
        "attribution": "e819d9c11a9ee3c336e3b13b645eec1c"
                       "ffdb48ef98c8897970420840a191a408",
        "incidents": "5e52d0c6738f17518a7a77841430de56"
                     "1027b8ce639cfe743a0012a29fb58d26",
    },
}


def _digests(row: dict) -> dict:
    obs = row["obs"]
    resilience = row["resilience"] or {}
    return {
        "arrivals": row["arrivals"],
        "completed": row["completed"],
        "errors": row["errors"],
        "trace": row["trace_digest"],
        "spans": obs["digests"]["spans"],
        "metrics": obs["digests"]["metrics"],
        "scrape": obs["scrape"]["digest"],
        "alerts": obs["alerts"]["digest"],
        "attribution": obs["attribution"]["digest"],
        "incidents": (resilience.get("incidents") or {}).get("digest"),
    }


@pytest.mark.parametrize("cell", sorted(SPECS))
def test_request_path_digests_are_pinned(cell):
    assert _digests(run_cell(SPECS[cell])) == GOLDEN[cell]
