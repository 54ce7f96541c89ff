"""Tests for runtime semantics: Podman vs Apptainer vs CRI.

The central reproduction: the same vLLM image crashes under Apptainer's
defaults and runs fine once the paper's Figure 5 flags are applied.
"""

from __future__ import annotations

import pytest

from repro.containers import RunOpts
from repro.containers.image import (flatten_to_sif, vllm_cuda_image,
                                    vllm_rocm_image)
from repro.errors import ContainerCrash
from tests.containers.conftest import drive


VLLM_PODMAN_OPTS = RunOpts(
    name="vllm", network_host=True, ipc_host=True, gpus="all",
    entrypoint="vllm",
    env={"OMP_NUM_THREADS": "1", "HF_HUB_OFFLINE": "1",
         "VLLM_NO_USAGE_STATS": "1"},
    volumes={"./models": "/vllm-workspace/models"},
    workdir="/vllm-workspace/models",
    command=("serve", "meta-llama/Llama-4-Scout-17B-16E-Instruct"),
)

APPTAINER_ADAPTED = RunOpts(
    name="vllm", gpus="all", entrypoint="vllm",
    apptainer_fakeroot=True, apptainer_writable_tmpfs=True,
    apptainer_cleanenv=True, apptainer_no_home=True, apptainer_nv=True,
    env={"HF_HOME": "/root/.cache/huggingface"},
    command=("serve", "meta-llama/Llama-4-Scout-17B-16E-Instruct"),
)


def _server_image(base):
    """The vLLM image but bound to the generic server app (fast startup),
    keeping the real image's expectations."""
    import dataclasses
    return dataclasses.replace(base, app="server")


def test_podman_runs_vllm_expectations(rig):
    node = rig.nodes[0]
    image = _server_image(vllm_cuda_image())
    rig.registry.seed(image)
    container = drive(rig.kernel, rig.podman.run(node, image, VLLM_PODMAN_OPTS))
    rig.kernel.run(until=container.ready)
    assert container.running
    assert node.gpus_used == 4
    container.stop()
    rig.kernel.run()
    assert container.exit_code == 137
    assert node.gpus_used == 0


def test_podman_without_host_ipc_crashes_vllm(rig):
    """Multi-GPU vLLM needs --ipc=host; omitting it crashes startup."""
    node = rig.nodes[0]
    image = _server_image(vllm_cuda_image())
    rig.registry.seed(image)
    opts = RunOpts(name="vllm", network_host=True, ipc_host=False, gpus="all")
    container = drive(rig.kernel, rig.podman.run(node, image, opts))
    with pytest.raises(ContainerCrash, match="ipc"):
        rig.kernel.run(until=container.ready)
    assert container.exit_code == 1
    assert node.gpus_used == 0  # resources released after crash


def test_apptainer_defaults_crash_vllm(rig):
    """Paper Section 3.2: default Apptainer semantics crash the container."""
    node = rig.nodes[0]
    image = _server_image(vllm_cuda_image())
    rig.registry.seed(image)
    container = drive(rig.kernel,
                      rig.apptainer.run(node, image, RunOpts(gpus="all")))
    with pytest.raises(ContainerCrash) as err:
        rig.kernel.run(until=container.ready)
    msg = str(err.value)
    assert "apptainer" in msg
    # All the default-semantics failure modes are reported.
    for fragment in ("calling user", "read-only", "home", "GPU"):
        assert fragment in msg


def test_apptainer_adapted_flags_fix_vllm(rig):
    """Figure 5 flags (--fakeroot --writable-tmpfs --cleanenv --no-home
    --nv) make the same image start cleanly."""
    node = rig.nodes[0]
    image = _server_image(vllm_cuda_image())
    rig.registry.seed(image)
    container = drive(rig.kernel,
                      rig.apptainer.run(node, image, APPTAINER_ADAPTED))
    rig.kernel.run(until=container.ready)
    assert container.running


def test_cri_defaults_satisfy_vllm(rig):
    """Pod semantics need no extra flags (the K8s path just works)."""
    node = rig.nodes[1]
    image = _server_image(vllm_cuda_image())
    rig.registry.seed(image)
    container = drive(rig.kernel,
                      rig.cri.run(node, image, RunOpts(gpus="all")))
    rig.kernel.run(until=container.ready)
    assert container.running


def test_apptainer_builds_sif_once_then_reuses(rig):
    node_a, node_b = rig.nodes[0], rig.nodes[1]
    image = _server_image(vllm_cuda_image())
    rig.registry.seed(image)
    drive(rig.kernel, rig.apptainer.run(node_a, image, APPTAINER_ADAPTED))
    pulls_after_first = rig.registry.pull_count.get(image.ref, 0)
    drive(rig.kernel, rig.apptainer.run(node_b, image, APPTAINER_ADAPTED))
    # Second node reads the SIF from the filesystem; no second registry pull.
    assert rig.registry.pull_count.get(image.ref, 0) == pulls_after_first == 1
    assert any(p.endswith(".sif") for p in rig.fs.files)


def test_batch_container_exits_zero(rig):
    node = rig.nodes[0]
    import dataclasses
    image = dataclasses.replace(rig.registry.resolve("alpine/git:latest"),
                                app="sleep")
    rig.registry.seed(image)
    container = drive(rig.kernel, rig.podman.run(
        node, image, RunOpts(env={"REPRO_SLEEP": "5"})))
    code = rig.kernel.run(until=container.exited)
    assert code == 0
    assert container.state == "exited"


def test_podman_cli_matches_paper_figure4(rig):
    argv = rig.podman.cli("vllm/vllm-openai:v0.9.1", VLLM_PODMAN_OPTS)
    joined = " ".join(argv)
    assert joined.startswith("podman run --rm --name=vllm")
    assert "--network=host" in argv
    assert "--ipc=host" in argv
    assert "--device nvidia.com/gpu=all" in argv
    assert "--entrypoint=vllm" in argv
    assert '-e "HF_HUB_OFFLINE=1"' in argv
    assert "--volume=./models:/vllm-workspace/models" in argv
    assert "--workdir=/vllm-workspace/models" in argv
    assert argv[-2:] == ["serve", "meta-llama/Llama-4-Scout-17B-16E-Instruct"]


def test_apptainer_cli_matches_paper_figure5(rig):
    argv = rig.apptainer.cli("vllm-cuda.sif", APPTAINER_ADAPTED)
    joined = " ".join(argv)
    for flag in ("--fakeroot", "--writable-tmpfs", "--cleanenv",
                 "--no-home", "--nv"):
        assert flag in argv, flag
    assert "vllm-cuda.sif" in argv
    assert joined.endswith(
        "vllm-cuda.sif vllm serve meta-llama/Llama-4-Scout-17B-16E-Instruct")


def test_rocm_image_exists_for_amd_platforms(rig):
    """The ROCm variant problem from Section 4: distinct repository."""
    rocm = vllm_rocm_image()
    assert rocm.repository == "rocm/vllm"
    assert rig.registry.has(rocm.ref)


def test_oci_runtimes_stage_once_per_node_and_refuse_sif(rig):
    # Podman and the kubelet's CRI share one OCI staging path: a pull
    # per node into that node's cache, and a refusal of SIF files that
    # names who runs the image.
    image = _server_image(vllm_cuda_image())
    rig.registry.seed(image)
    sif = flatten_to_sif(image, "/images/vllm.sif")
    for runtime, runner in ((rig.podman, "podman"), (rig.cri, "kubelet")):
        pulls = rig.registry.pull_count.get(image.ref, 0)
        for node in (rig.nodes[0], rig.nodes[0], rig.nodes[1]):
            staged = drive(rig.kernel, runtime.stage_image(node, image))
            assert staged.ref == image.ref
        assert rig.registry.pull_count[image.ref] == pulls + 2
        assert runtime.cache_for(rig.nodes[0]).has_image(image.ref)
        with pytest.raises(TypeError,
                           match=f"^{runner} runs OCI images, not SIF files$"):
            drive(rig.kernel, runtime.stage_image(rig.nodes[0], sif))
