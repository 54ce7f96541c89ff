"""Tests for multi-node inference (Ray + TP x PP engine) and faults."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ContainerCrash
from repro.models import llama31_405b
from repro.net.http import HttpClient
from repro.storage.mounts import PfsMount
from repro.vllm import (CrashAfterRequests, EngineArgs, FaultPlan,
                        MultiNodeEngineLauncher, RequestSpec)
from repro.vllm.config import parse_serve_command
from repro.cluster.profiles import perf_profile
from tests.containers.conftest import drive

MODEL = "meta-llama/Llama-3.1-405B-Instruct"


def _seed_405b(rig):
    card = llama31_405b()
    for rel, size in card.repo_files().items():
        rig.fs.write_meta(f"/models/{MODEL}/{rel}", size)


def _launcher(rig, fault_plan=None):
    args = EngineArgs(model=MODEL, tensor_parallel_size=4,
                      pipeline_parallel_size=4, max_model_len=65536)
    return MultiNodeEngineLauncher(
        rig.podman, "vllm/vllm-openai:v0.9.1", args,
        PfsMount(rig.fs, "/models"),
        extras={"perf_profile": perf_profile("hops", "405b-multinode"),
                "fault_plan": fault_plan})


def test_multinode_deploys_and_serves(rig):
    _seed_405b(rig)
    deployment = drive(rig.kernel, _launcher(rig).launch(rig.nodes[:4]))
    assert deployment.head.node is rig.nodes[0]
    assert len(deployment.ray.nodes) == 4
    assert all(n.gpus_used == 4 for n in rig.nodes[:4])
    assert deployment.server.startup_finished_at == rig.kernel.now
    client = HttpClient(rig.fabric, "registry")

    def proc(env):
        resp = yield from client.post(
            deployment.endpoint[0], deployment.endpoint[1],
            "/v1/chat/completions",
            json={"model": MODEL,
                  "messages": [{"role": "user", "content": "hello"}],
                  "max_tokens": 32})
        return resp

    resp = rig.kernel.run(until=rig.kernel.spawn(proc(rig.kernel)))
    assert resp.ok and resp.json["usage"]["completion_tokens"] == 32
    deployment.stop()
    rig.kernel.run()
    assert all(not c.running for c in deployment.containers)
    assert all(n.gpus_used == 0 for n in rig.nodes[:4])


def test_head_serve_argv_parses_to_launcher_args(rig):
    """The head runs the deploy tool's rendered ``vllm serve`` argv, and
    the server reads back exactly the launcher's engine arguments."""
    _seed_405b(rig)
    launcher = _launcher(rig)
    deployment = drive(rig.kernel, launcher.launch(rig.nodes[:4]))
    argv = deployment.head.opts.command
    assert argv[:2] == ("serve", MODEL)
    assert parse_serve_command(argv) == launcher.args
    assert deployment.server.args == launcher.args
    assert deployment.server.args.world_size == 16


def test_multinode_missing_model_files_fail_startup(rig):
    """No 405B files on the filesystem: the head's server refuses to
    start, naming the missing files, and the Ray containers stop."""
    launcher = _launcher(rig)
    with pytest.raises(ContainerCrash, match="model files .* not found"):
        drive(rig.kernel, launcher.launch(rig.nodes[:4]))
    rig.kernel.run()
    assert all(n.gpus_used == 0 for n in rig.nodes[:4])


def test_multinode_launch_fails_during_pfs_outage(rig):
    """A filesystem outage over the whole launch fails the server's
    startup, as it fails a single-node server's."""
    _seed_405b(rig)
    rig.fs.schedule_downtime(start=0.0, duration=1e6)
    with pytest.raises(ContainerCrash, match="down for maintenance"):
        drive(rig.kernel, _launcher(rig).launch(rig.nodes[:4]))


def test_multinode_requires_matching_node_count(rig):
    _seed_405b(rig)

    def proc(env):
        yield from _launcher(rig).launch(rig.nodes[:2])

    p = rig.kernel.spawn(proc(rig.kernel))
    with pytest.raises(ConfigurationError, match="pipeline_parallel"):
        rig.kernel.run(until=p)


def test_single_node_pp_rejected(rig):
    args = EngineArgs(model=MODEL, tensor_parallel_size=4,
                      pipeline_parallel_size=1)
    with pytest.raises(ConfigurationError):
        MultiNodeEngineLauncher(rig.podman, "x", args,
                                PfsMount(rig.fs, "/models"))


def test_launcher_rejects_args_its_serve_argv_cannot_carry(rig):
    """The head's argv sets no port: a launcher asked for another port
    refuses at construction rather than serve on 8000."""
    args = EngineArgs(model=MODEL, tensor_parallel_size=4,
                      pipeline_parallel_size=4, port=9000)
    with pytest.raises(ConfigurationError, match="host and port"):
        MultiNodeEngineLauncher(rig.podman, "x", args,
                                PfsMount(rig.fs, "/models"))


def test_multinode_crash_stops_containers(rig):
    """Fig. 12 run 1: the engine crashes mid-sweep; the head's server
    exits with the crash, and every Ray container stops with it."""
    _seed_405b(rig)
    plan = FaultPlan(CrashAfterRequests(50, reason="memory leak"))
    deployment = drive(rig.kernel, _launcher(rig, plan).launch(rig.nodes[:4]))
    engine = deployment.server.engine
    for _ in range(60):
        try:
            engine.submit(RequestSpec(100, 50))
        except Exception:
            break
    assert rig.kernel.run(until=deployment.head.exited) == 1
    assert "memory leak" in deployment.head.exit_reason
    rig.kernel.run()
    assert engine.crashed is not None
    assert all(not c.running for c in deployment.containers)
