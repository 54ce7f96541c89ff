"""Tests for the converged site assembly (paper Figure 1)."""

from __future__ import annotations

import pytest

from repro.cluster.platform import HPCPlatform, K8sPlatform
from repro.core import apply_s3_routing_fix
from repro.core.site import GPU_MODEL, GPUS_PER_NODE, PLATFORM_KINDS
from repro.errors import NotFoundError
from repro.units import GB, gbps
from tests.core.conftest import SCOUT


def test_site_has_all_figure1_elements(site):
    assert site.hops.wlm.name == "slurm"
    assert site.eldorado.wlm.name == "flux"
    assert site.goodall.cluster.ingress.url.startswith("https://")
    assert site.s3.sites[0].name == "albuquerque"
    assert site.gitlab.has("vllm/vllm-openai:v0.9.1")
    assert site.quay.has("rocm/vllm:rocm6.4.1_vllm_0.9.1_20250702")


def test_platform_gpu_variants(site):
    assert site.hops.gpu_variant == "cuda"
    assert site.eldorado.gpu_variant == "rocm"
    assert site.goodall.gpu_variant == "cuda"
    assert site.hops.gpu_spec.name == "H100-SXM-80G"
    assert site.eldorado.gpu_spec.name == "MI300A-120G"
    assert site.goodall.gpu_spec.name == "H100-NVL-94G"
    assert site.goodall.gpus_per_node == 2


def test_hub_has_gated_models(site):
    assert SCOUT in site.hub.repos
    assert SCOUT in site.hub.gated
    assert site.hf_token in site.hub.tokens


def test_platform_kinds_declare_the_built_site(site):
    # Specs validate platform names, the router's platform, capacity
    # and model fit against these tables, so they must name, type and
    # equip exactly what is built.
    assert list(site.platforms) == list(PLATFORM_KINDS)
    kinds = {"hpc": HPCPlatform, "k8s": K8sPlatform}
    for name, kind in PLATFORM_KINDS.items():
        platform = site.platform(name)
        assert isinstance(platform, kinds[kind])
        assert platform.name == name
        assert platform.gpu_spec.name == GPU_MODEL[name]
        assert platform.gpus_per_node == GPUS_PER_NODE[name]


def test_unknown_platform_raises(site):
    with pytest.raises(NotFoundError):
        site.platform("perlmutter")


def test_s3_routing_fix_order_of_magnitude(site):
    """Section 2.4: the routing change improved Hops->S3 bandwidth by an
    order of magnitude."""
    kernel = site.kernel
    node = site.hops.nodes[0].hostname

    def xfer(env):
        flow = yield from site.fabric.transfer(node, "s3-abq", 50 * GB)
        return flow.mean_throughput

    slow = kernel.run(until=kernel.spawn(xfer(kernel)))
    apply_s3_routing_fix(site)
    fast = kernel.run(until=kernel.spawn(xfer(kernel)))
    assert slow == pytest.approx(gbps(25), rel=0.01)
    assert fast == pytest.approx(gbps(200), rel=0.01)
    assert fast / slow >= 8  # "order of magnitude"


def test_hpc_filesystems_not_cross_mounted(site):
    assert site.hops.filesystem.is_mounted_on("hops")
    assert not site.hops.filesystem.is_mounted_on("eldorado")
    assert not site.hops.filesystem.is_mounted_on("goodall")


def test_registry_mirroring_gitlab_to_quay(site):
    """Push to GitLab mirrors into Quay (with security scan)."""
    from repro.containers.image import vllm_cuda_image
    img = vllm_cuda_image().retag(tag="prod-candidate")

    def push(env):
        yield from site.gitlab.push(img, from_host=site.hops.nodes[0].hostname)

    site.kernel.run(until=site.kernel.spawn(push(site.kernel)))
    assert not site.quay.has(img.ref)
    site.kernel.run()  # mirror lag elapses
    assert site.quay.has(img.ref)
