"""Tests for the unified deployment tool (Section 4 prototype)."""

from __future__ import annotations

import pytest

from repro.containers.image import vllm_cuda_image
from repro.containers.runtime import RunOpts
from repro.core import (CaseStudyWorkflow, Deployer, build_sandia_site,
                        vllm_package)
from repro.core.translate import helm_values_for
from repro.errors import NotFoundError, StateError
from repro.k8s import PodPhase
from repro.k8s.helm import HelmRelease
from repro.net.http import HttpClient
from tests.core.conftest import B405, QUANT, SCOUT


@pytest.fixture
def deployer(site):
    return Deployer(site)


def _seed(workflow, model, platform):
    workflow.admin_seed_model(model, platform)


def test_package_resolves_hardware_variants():
    pkg = vllm_package()
    assert pkg.variant_for("cuda").image_ref == "vllm/vllm-openai:v0.9.1"
    assert pkg.variant_for("rocm").image_ref.startswith("rocm/vllm:")
    with pytest.raises(NotFoundError):
        pkg.variant_for("oneapi")


def test_package_profiles():
    pkg = vllm_package()
    offline = pkg.profile()  # default
    assert offline.env["HF_HUB_OFFLINE"] == "1"
    online = pkg.profile("online-serving")
    assert "HF_HUB_OFFLINE" not in online.env
    with pytest.raises(NotFoundError):
        pkg.profile("multiverse")


def test_adapt_opts_podman_vs_apptainer():
    exp = vllm_cuda_image().expectations
    podman_opts = Deployer.adapt_opts(exp, "podman", RunOpts())
    assert podman_opts.network_host and podman_opts.ipc_host
    assert podman_opts.gpus == "all"
    appt_opts = Deployer.adapt_opts(exp, "apptainer", RunOpts())
    assert appt_opts.apptainer_fakeroot
    assert appt_opts.apptainer_writable_tmpfs
    assert appt_opts.apptainer_cleanenv
    assert appt_opts.apptainer_no_home
    assert appt_opts.apptainer_nv
    with pytest.raises(NotFoundError):
        Deployer.adapt_opts(exp, "docker", RunOpts())


def test_deploy_hops_podman(site, workflow, deployer):
    _seed(workflow, QUANT, "hops")

    def go(env):
        d = yield from deployer.deploy(
            vllm_package(), "hops",
            {"model": QUANT, "tensor_parallel_size": 2,
             "max_model_len": 65536})
        return d

    deployment = workflow.run(go(site.kernel))
    assert deployment.mechanism == "podman"
    assert deployment.endpoint[1] == 8000
    assert deployment.container.running
    # The artifact is the Figure 4-style command.
    joined = " ".join(deployment.artifact)
    assert "--network=host" in joined and "--ipc=host" in joined


def test_deploy_hops_apptainer_same_package(site, workflow, deployer):
    """Same package, different runtime: adaptation is automatic."""
    _seed(workflow, QUANT, "hops")

    def go(env):
        d = yield from deployer.deploy(
            vllm_package(), "hops",
            {"model": QUANT, "tensor_parallel_size": 2,
             "max_model_len": 65536},
            runtime_name="apptainer")
        return d

    deployment = workflow.run(go(site.kernel))
    assert deployment.mechanism == "apptainer"
    joined = " ".join(deployment.artifact)
    for flag in ("--fakeroot", "--writable-tmpfs", "--cleanenv",
                 "--no-home", "--nv"):
        assert flag in joined


def test_deploy_eldorado_picks_rocm_image(site, workflow, deployer):
    _seed(workflow, SCOUT, "eldorado")

    def go(env):
        d = yield from deployer.deploy(
            vllm_package(), "eldorado",
            {"model": SCOUT, "tensor_parallel_size": 4,
             "max_model_len": 65536})
        return d

    deployment = workflow.run(go(site.kernel))
    assert deployment.container.image.repository == "rocm/vllm"
    assert deployment.container.node.hostname.startswith("eldo")


def test_deploy_goodall_via_helm(site, workflow, deployer):
    workflow.admin_seed_s3(QUANT)

    def go(env):
        d = yield from deployer.deploy(
            vllm_package(), "goodall",
            {"model": QUANT, "tensor_parallel_size": 2,
             "max_model_len": 65536})
        return d

    deployment = workflow.run(go(site.kernel))
    assert deployment.mechanism == "helm"
    # The artifact is the Figure 6-style values dict.
    values = deployment.artifact
    assert values["image"]["repository"] == "vllm/vllm-openai"
    assert "--served-model-name" in values["image"]["command"]
    # One pod runs with the model staged from S3 into the PVC.
    pods = site.goodall.cluster.running_pods()
    assert len(pods) == 1 and pods[0].ready
    # Identical container image as the HPC deployments (paper Section 3.4.2).
    assert values["image"]["tag"] == "v0.9.1"


def test_k8s_deployment_reachable_via_ingress(site, workflow, deployer):
    workflow.admin_seed_s3(QUANT)

    def go(env):
        d = yield from deployer.deploy(
            vllm_package(), "goodall",
            {"model": QUANT, "tensor_parallel_size": 2,
             "max_model_len": 65536})
        client = HttpClient(site.fabric, site.user_host)
        resp = yield from client.post(
            d.endpoint[0], d.endpoint[1], "/v1/chat/completions",
            json={"model": QUANT,
                  "messages": [{"role": "user", "content": "hi"}],
                  "max_tokens": 16})
        return resp

    resp = workflow.run(go(site.kernel))
    assert resp.ok
    assert resp.json["usage"]["completion_tokens"] == 16


def test_no_free_gpus_raises(site, workflow, deployer):
    _seed(workflow, SCOUT, "hops")
    for node in site.hops.nodes:
        node.allocate_gpus(4)
    from repro.errors import StateError

    def go(env):
        yield from deployer.deploy(
            vllm_package(), "hops",
            {"model": SCOUT, "tensor_parallel_size": 4})

    with pytest.raises(StateError, match="free GPUs"):
        workflow.run(go(site.kernel))


def test_pipeline_parallel_deploy_needs_the_world_size_in_gpus(
        site, workflow):
    """A TP4 x PP4 engine needs 16 GPUs: no 4-GPU Hops node can place
    it, so the deploy fails at placement instead of starting a PP-4
    engine on 4 GPUs."""
    workflow.admin_seed_model(B405, "hops")
    with pytest.raises(StateError, match="no node .* 16 free GPUs"):
        workflow.run(workflow.deploy_model(
            "hops", B405, tensor_parallel_size=4,
            extra_params={"pipeline_parallel_size": 4}))


def test_tp2_pp2_deploy_holds_four_gpus(site, workflow):
    workflow.admin_seed_model(QUANT, "hops")
    deployment = workflow.run(workflow.deploy_model(
        "hops", QUANT, tensor_parallel_size=2,
        extra_params={"pipeline_parallel_size": 2}))
    container = deployment.container
    assert len(container.ctx.gpu_indices) == 4
    assert container.node.gpus_used == 4
    assert container.app.engine.perf.pp == 2


def test_second_release_on_a_busy_port_stays_pending():
    """One replica per node per service port on Kubernetes: a 4-GPU node
    serving one 2-GPU release has GPUs left but not its port."""
    site = build_sandia_site(seed=11, hops_nodes=1, eldorado_nodes=1,
                             goodall_nodes=1, cee_nodes=1)
    CaseStudyWorkflow(site).admin_seed_s3(QUANT)
    pkg, cluster = vllm_package(), site.cee.cluster
    (knode,) = cluster.nodes
    values = {name: helm_values_for(
        site, pkg, pkg.variant_for("cuda"), pkg.profile(),
        {"model": QUANT, "tensor_parallel_size": 2,
         "max_model_len": 65536, "name": name})
        for name in ("first", "second")}
    HelmRelease.install(cluster, "first", values["first"])
    site.kernel.run(until=site.kernel.now + 1800)
    HelmRelease.install(cluster, "second", values["second"])
    for _ in range(6):
        site.kernel.run(until=site.kernel.now + 600)
        pods = {p.meta.labels["app"]: p for p in cluster.pods()}
        assert pods["first"].phase is PodPhase.RUNNING
        assert pods["second"].phase is PodPhase.PENDING
        assert pods["second"].node_name is None
        assert "FailedScheduling" in pods["second"].message
    scheduler = cluster.scheduler
    assert scheduler.fits(knode, 2, None)
    assert not scheduler.fits(knode, 2, pkg.service_port)
    assert scheduler.fits(knode, 2, pkg.service_port + 1)


def test_deployment_records_the_serving_backend(site, workflow, deployer):
    """Both platform kinds hand back the (host, port) that serves: the
    HPC node, or the node of the release's ready pod."""
    _seed(workflow, QUANT, "hops")
    workflow.admin_seed_s3(QUANT)
    params = {"model": QUANT, "tensor_parallel_size": 2,
              "max_model_len": 65536}

    def go(env):
        hpc = yield from deployer.deploy(vllm_package(), "hops", params)
        k8s = yield from deployer.deploy(vllm_package(), "goodall", params)
        return hpc, k8s

    hpc, k8s = workflow.run(go(site.kernel))
    assert hpc.backend == hpc.endpoint == (hpc.container.node.hostname, 8000)
    (pod,) = site.goodall.cluster.running_pods()
    assert k8s.backend == (pod.node_name, 8000)
    assert k8s.endpoint[0] == "goodall-ingress"


def test_free_slots_follow_one_rule_per_platform_kind(site, workflow,
                                                      deployer):
    """A slot is a node with the GPUs and the service port free, counted
    by the deployer's HPC rule or the pod scheduler's fit."""
    _seed(workflow, QUANT, "hops")
    workflow.admin_seed_s3(QUANT)
    port = vllm_package().service_port
    assert deployer.free_slots(site.hops, 2, port) == 6
    assert deployer.free_slots(site.cee, 2, port) == 2
    assert deployer.free_slots(site.goodall, 4, port) == 0

    def go(env):
        for name in ("hops", "cee"):
            yield from deployer.deploy(
                vllm_package(), name,
                {"model": QUANT, "tensor_parallel_size": 2,
                 "max_model_len": 65536})

    workflow.run(go(site.kernel))
    # Each busy node keeps two free GPUs but not its port.
    assert deployer.free_slots(site.hops, 2, port) == 5
    assert deployer.free_slots(site.hops, 2, port + 1) == 6
    assert deployer.free_slots(site.cee, 2, port) == 1
    assert deployer.free_slots(site.cee, 2, port + 1) == 2


def test_helm_startup_crash_loop_fails_fast(site, workflow, deployer):
    # Scout's bf16 weights (203 GiB) cannot fit one 94 GiB goodall GPU.
    # The engine crashes at startup, as it does on HPC, and the deploy
    # fails at the pod's first back-off instead of waiting out the
    # readiness timeout.
    workflow.admin_seed_model(SCOUT, "goodall")

    def go(env):
        yield from deployer.deploy(
            vllm_package(), "goodall",
            {"model": SCOUT, "tensor_parallel_size": 1,
             "max_model_len": 65536})

    with pytest.raises(StateError, match="crash-looped at startup: vllm: "
                       ".*weights alone need 203.0 GiB"):
        workflow.run(go(site.kernel))
    pods = site.goodall.cluster.api.list("Pod")
    assert [pod.restarts for pod in pods] == [1]
    assert pods[0].message == "CrashLoopBackOff (exit 1)"
    assert site.kernel.now < 600.0


def test_helm_init_crash_loop_fails_fast(site, workflow, deployer):
    # Nobody seeded goodall's S3 bucket, so the chart's model-download
    # init container exits 1 on every try.  The deploy fails at its
    # first back-off with the download's reason, instead of waiting out
    # the readiness timeout.
    def go(env):
        yield from deployer.deploy(
            vllm_package(), "goodall",
            {"model": QUANT, "tensor_parallel_size": 2})

    with pytest.raises(StateError, match="crash-looped at startup: "
                       "aws-cli: nothing found"):
        workflow.run(go(site.kernel))
    pods = site.goodall.cluster.api.list("Pod")
    assert [pod.restarts for pod in pods] == [1]
    assert pods[0].message == "Init:CrashLoopBackOff (model-download exit 1)"
    assert site.kernel.now < 600.0
