"""Artifact-generation tests: commands/values match the paper's figures."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_sandia_site, vllm_package
from repro.core.translate import command_text, helm_values_for
from repro.errors import ConfigurationError
from repro.vllm.config import parse_serve_command
from repro.vllm.scheduler import SCHEDULER_POLICIES
from tests.core.conftest import SCOUT


def test_helm_values_match_figure6(site):
    pkg = vllm_package()
    values = helm_values_for(
        site, pkg, pkg.variant_for("cuda"), pkg.profile(),
        {"model": SCOUT, "tensor_parallel_size": 4,
         "max_model_len": 65536, "name": "vllm"})
    assert values["image"]["repository"] == "vllm/vllm-openai"
    assert values["image"]["tag"] == "v0.9.1"
    cmd = values["image"]["command"]
    assert cmd[:3] == ["vllm", "serve", "/data/"]
    assert "--served-model-name" in cmd
    assert cmd[cmd.index("--served-model-name") + 1] == SCOUT
    assert "--tensor-parallel-size=4" in cmd
    assert "--max-model-len=65536" in cmd
    env = {e["name"]: e["value"] for e in values["env"]}
    assert env["HOME"] == "/data"
    assert env["HF_HOME"] == "/data"
    assert env["HF_HUB_DISABLE_TELEMETRY"] == "1"
    # The init container gets the site's S3 settings (same client as Fig 3).
    dl = values["modelDownload"]
    assert dl["AWS_ENDPOINT_URL"] == "s3.sandia.example"
    assert dl["AWS_REQUEST_CHECKSUM_CALCULATION"] == "when_required"
    assert dl["prefix"] == f"{SCOUT}/"


def test_helm_values_need_model(site):
    pkg = vllm_package()
    with pytest.raises(ConfigurationError):
        helm_values_for(site, pkg, pkg.variant_for("cuda"), pkg.profile(),
                        {})


def test_vllm_command_builder_matches_figure4():
    pkg = vllm_package()
    cmd = pkg.command({"model": SCOUT, "tensor_parallel_size": 4,
                       "max_model_len": 65536,
                       "override_generation_config":
                           {"attn_temperature_tuning": True}})
    assert cmd[0] == "serve" and cmd[1] == SCOUT
    assert "--tensor_parallel_size=4" in cmd
    assert "--disable-log-requests" in cmd
    assert "--max-model-len=65536" in cmd
    assert any("attn_temperature_tuning" in c for c in cmd)


def test_helm_gpus_are_the_world_size(site):
    """The chart requests TP x PP GPUs; the head flag stays TP."""
    pkg = vllm_package()
    values = helm_values_for(
        site, pkg, pkg.variant_for("cuda"), pkg.profile(),
        {"model": SCOUT, "tensor_parallel_size": 2,
         "pipeline_parallel_size": 2, "max_model_len": 65536})
    assert values["resources"]["gpus"] == 4
    assert "--tensor-parallel-size=2" in values["image"]["command"]


def test_offline_profile_env_matches_paper():
    env = vllm_package().profile("offline-serving").env
    for flag in ("HF_HUB_OFFLINE", "TRANSFORMERS_OFFLINE",
                 "HF_DATASETS_OFFLINE", "VLLM_NO_USAGE_STATS",
                 "DO_NOT_TRACK", "HF_HUB_DISABLE_TELEMETRY",
                 "VLLM_DISABLE_COMPILE_CACHE", "HF_HUB_ENABLE_HF_TRANSFER"):
        assert flag in env, flag


def test_command_text_renders_multiline():
    text = command_text(["podman run", "--rm", "--name=vllm", "image"])
    assert text.startswith("podman run")
    assert "\\" in text


#: ``vllm serve`` parameters, each absent or set to a legal value.
ENGINE_PARAMS = st.fixed_dictionaries({"model": st.just(SCOUT)}, optional={
    "tensor_parallel_size": st.integers(1, 8),
    "pipeline_parallel_size": st.integers(1, 4),
    "disable_log_requests": st.booleans(),
    "enable_prefix_caching": st.booleans(),
    "gpu_memory_utilization": st.floats(0.1, 1.0),
    "max_model_len": st.none() | st.integers(16, 131072),
    "served_model_name": st.sampled_from(["scout", "team/llm"]),
    "scheduler_policy": st.sampled_from(list(SCHEDULER_POLICIES)),
    "chunk_tokens": st.integers(1, 4096),
    "disagg_role": st.sampled_from(["unified", "prefill", "decode"]),
    "override_generation_config": st.dictionaries(
        st.sampled_from(["attn_temperature_tuning", "temperature"]),
        st.booleans() | st.floats(0.0, 2.0), max_size=2),
})


@pytest.fixture(scope="module")
def chart_site():
    return build_sandia_site(seed=11, hops_nodes=1, eldorado_nodes=1,
                             goodall_nodes=1, cee_nodes=1)


@settings(max_examples=200, deadline=None)
@given(ENGINE_PARAMS)
def test_podman_and_helm_commands_configure_the_same_engine(chart_site,
                                                            params):
    """One flag renderer: the Podman/Apptainer argv and the Helm chart
    command parse to equal engine arguments, apart from what each head
    names itself (model path, served name, host and port)."""
    pkg = vllm_package()
    podman = parse_serve_command(pkg.command(params))
    chart = helm_values_for(chart_site, pkg, pkg.variant_for("cuda"),
                            pkg.profile(), params)["image"]["command"]
    helm = parse_serve_command(tuple(chart))
    head = {"model": "", "served_model_name": None, "host": "",
            "port": 0}
    assert replace(helm, **head) == replace(podman, **head)
    served = [t for t in chart if t.startswith("--served-model-name")]
    assert len(served) == 1
    assert helm.served_model_name == params.get("served_model_name", SCOUT)
    assert podman.public_model_name == helm.public_model_name
