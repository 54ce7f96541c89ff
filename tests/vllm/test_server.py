"""Tests for the vLLM OpenAI server app inside containers."""

from __future__ import annotations

import pytest

from repro.containers import RunOpts
from repro.containers.image import vllm_cuda_image
from repro.errors import ContainerCrash
from repro.net.http import HttpClient
from repro.storage.mounts import PfsMount
from repro.models import llama4_scout_quantized
from repro.vllm.server import ENGINE_INIT_SECONDS
from tests.containers.conftest import drive

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"

OFFLINE_ENV = {
    "OMP_NUM_THREADS": "1", "HF_HUB_OFFLINE": "1",
    "TRANSFORMERS_OFFLINE": "1", "HF_DATASETS_OFFLINE": "1",
    "VLLM_NO_USAGE_STATS": "1", "DO_NOT_TRACK": "1",
}


def _seed_model(rig, model=QUANT):
    card = llama4_scout_quantized()
    for rel, size in card.repo_files().items():
        rig.fs.write_meta(f"/models/{model}/{rel}", size)


def _opts(model=QUANT, tp=2, env=None, max_len=65536):
    return RunOpts(
        name="vllm", network_host=True, ipc_host=True, gpus=tp,
        entrypoint="vllm",
        env=env if env is not None else dict(OFFLINE_ENV),
        mounts={"/vllm-workspace/models": None},  # filled by caller
        workdir="/vllm-workspace/models",
        command=("serve", model, f"--tensor_parallel_size={tp}",
                 "--disable-log-requests", f"--max-model-len={max_len}"),
    )


def _run_vllm(rig, opts):
    opts.mounts["/vllm-workspace/models"] = PfsMount(rig.fs, "/models")
    node = rig.nodes[0]
    container = drive(rig.kernel, rig.podman.run(
        node, "vllm/vllm-openai:v0.9.1", opts))
    return container


def test_vllm_serves_chat_completions(rig):
    _seed_model(rig)
    container = _run_vllm(rig, _opts())
    rig.kernel.run(until=container.ready)
    client = HttpClient(rig.fabric, rig.nodes[1].hostname)

    def proc(env):
        resp = yield from client.post(
            rig.nodes[0].hostname, 8000, "/v1/chat/completions",
            json={"model": QUANT,
                  "messages": [{"role": "user",
                                "content": "How long to get from Earth "
                                           "to Mars?"}],
                  "temperature": 0.7, "max_tokens": 64})
        return resp

    resp = rig.kernel.run(until=rig.kernel.spawn(proc(rig.kernel)))
    assert resp.ok
    assert resp.json["usage"]["completion_tokens"] == 64
    assert resp.json["model"] == QUANT
    assert resp.json["repro_stats"]["ttft"] > 0


def test_startup_takes_load_plus_init_time(rig):
    """Startup = image pull + weight streaming + engine init; minutes,
    not seconds (Section 3.3)."""
    _seed_model(rig)
    container = _run_vllm(rig, _opts())
    rig.kernel.run(until=container.ready)
    assert rig.kernel.now > ENGINE_INIT_SECONDS


def test_vllm_health_and_models_endpoints(rig):
    _seed_model(rig)
    container = _run_vllm(rig, _opts())
    rig.kernel.run(until=container.ready)
    client = HttpClient(rig.fabric, rig.nodes[1].hostname)

    def proc(env):
        health = yield from client.get(rig.nodes[0].hostname, 8000, "/health")
        models = yield from client.get(rig.nodes[0].hostname, 8000,
                                       "/v1/models")
        return health, models

    health, models = rig.kernel.run(until=rig.kernel.spawn(proc(rig.kernel)))
    assert health.json == {"status": "ok"}
    assert models.json["data"][0]["id"] == QUANT


def test_missing_offline_env_crashes_airgapped(rig):
    """Without HF_HUB_OFFLINE & co., startup tries huggingface.co and the
    air-gapped fabric has no route."""
    _seed_model(rig)
    opts = _opts(env={"OMP_NUM_THREADS": "1"})  # no offline flags
    container = _run_vllm(rig, opts)
    with pytest.raises(ContainerCrash, match="offline"):
        rig.kernel.run(until=container.ready)


def test_missing_model_files_crash(rig):
    container = _run_vllm(rig, _opts())  # nothing seeded
    with pytest.raises(ContainerCrash, match="not found"):
        rig.kernel.run(until=container.ready)


def test_pipeline_parallel_needs_world_size_gpus_without_ray(rig):
    """PP 4 on a 4-GPU container with no Ray cluster: the engine needs
    TP x PP = 16 GPUs, and startup crashes naming that world size."""
    _seed_model(rig)
    opts = _opts(tp=4)
    opts.command += ("--pipeline_parallel_size=4",)
    container = _run_vllm(rig, opts)
    with pytest.raises(ContainerCrash, match="world size 16"):
        rig.kernel.run(until=container.ready)


def test_default_context_window_crashes_single_node(rig):
    """No --max-model-len: Scout's 10M context cannot fit (Section 3.2)."""
    _seed_model(rig)
    opts = _opts()
    opts.command = ("serve", QUANT, "--tensor_parallel_size=2",
                    "--disable-log-requests")
    container = _run_vllm(rig, opts)
    with pytest.raises(ContainerCrash, match="max-model-len"):
        rig.kernel.run(until=container.ready)


def test_wrong_model_name_404(rig):
    _seed_model(rig)
    container = _run_vllm(rig, _opts())
    rig.kernel.run(until=container.ready)
    client = HttpClient(rig.fabric, rig.nodes[1].hostname)

    def proc(env):
        resp = yield from client.post(
            rig.nodes[0].hostname, 8000, "/v1/chat/completions",
            json={"model": "gpt-oss-120b",
                  "messages": [{"role": "user", "content": "hi"}]})
        return resp.status

    assert rig.kernel.run(until=rig.kernel.spawn(proc(rig.kernel))) == 404


def test_stop_container_unbinds_port(rig):
    _seed_model(rig)
    container = _run_vllm(rig, _opts())
    rig.kernel.run(until=container.ready)
    container.stop()
    rig.kernel.run()
    from repro.net.http import lookup
    assert lookup(rig.fabric, rig.nodes[0].hostname, 8000) is None


def test_health_fails_after_engine_crash(rig):
    """Routers quarantine on /health, so it must reflect engine death."""
    from repro.vllm import CrashAfterRequests, FaultPlan
    _seed_model(rig)
    opts = _opts()
    opts.extras["fault_plan"] = FaultPlan(CrashAfterRequests(1))
    container = _run_vllm(rig, opts)
    rig.kernel.run(until=container.ready)
    client = HttpClient(rig.fabric, rig.nodes[1].hostname)
    host = rig.nodes[0].hostname

    def get_health(env):
        resp = yield from client.get(host, 8000, "/health")
        return resp

    assert drive(rig.kernel, get_health(rig.kernel)).status == 200

    def crash_it(env):
        resp = yield from client.post(
            host, 8000, "/v1/chat/completions",
            json={"model": QUANT, "repro_prompt_tokens": 16,
                  "max_tokens": 16})
        return resp

    assert drive(rig.kernel, crash_it(rig.kernel)).status >= 500
    # The engine crash exits the container, so over HTTP the port is now
    # refused (a router's health pass quarantines on that exception).
    from repro.errors import APIError
    with pytest.raises(APIError, match="connection refused"):
        drive(rig.kernel, get_health(rig.kernel))
    # The handler itself reports the dead engine while still bound — the
    # window between engine death and container teardown.
    from repro.net.http import HttpRequest
    app = container.app
    assert app.engine.crashed is not None
    health = drive(rig.kernel,
                   app._handle(HttpRequest(method="GET", path="/health")))
    assert health.status == 503
