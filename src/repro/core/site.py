"""The converged computing architecture (paper Figure 1) as one object.

``build_sandia_site`` assembles a Sandia-like site:

* **Hops** — HPC, Slurm, 4 x H100-80G per node, Lustre;
* **El Dorado** — HPC, Flux, 4 x MI300A per node, Lustre;
* **Goodall** — OpenShift/Kubernetes, 2 x H100-NVL-94G per node, ingress,
  Ceph-backed PVs;
* **CEE-OpenShift** — production Kubernetes with A100s;
* site-wide S3 object storage (two sites, 16 x 25 Gbps frontends),
  GitLab + Quay registries (Quay scans and mirrors), and the campus
  network with the *mis-routed* Hops-to-S3 default path that the paper
  fixed for an order-of-magnitude bandwidth gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..containers.image import (alpine_git_image, aws_cli_image,
                                vllm_cuda_image, vllm_rocm_image)
from ..containers.apptainer import ApptainerRuntime
from ..containers.podman import PodmanRuntime
from ..containers.registry import Registry
from ..hardware.gpu import gpu_spec
from ..hardware.node import NicSpec, Node, NodeSpec, make_nodes
from ..k8s.cluster import KubernetesCluster
from ..models.catalog import llama31_405b, llama4_scout, llama4_scout_quantized
from ..models.repository import ModelHub
from ..net.cal import ComputeAsLogin
from ..net.proxy import NginxProxy
from ..net.topology import Fabric
from ..simkernel import SimKernel
from ..storage.filesystem import ParallelFilesystem
from ..storage.object_store import ObjectStore
from ..cluster.platform import HPCPlatform, K8sPlatform
from ..units import GiB, gbps

#: Default access token granted for gated model downloads.
HF_TOKEN = "hf_sandia_demo_token"
S3_KEY, S3_SECRET = "AKIA_SANDIA", "s3-secret-demo"
#: The site's platforms by name, each with its kind (``hpc`` runs
#: Slurm/Flux plus podman, ``k8s`` runs OpenShift): the one list
#: :class:`ConvergedSite` resolves names against and specs validate by.
PLATFORM_KINDS = {"hops": "hpc", "eldorado": "hpc", "goodall": "k8s",
                  "cee": "k8s"}
#: GPUs on each node of each platform, and their model: the tables the
#: site's nodes are built from and specs check capacity and fit against.
GPUS_PER_NODE = {"hops": 4, "eldorado": 4, "goodall": 2, "cee": 4}
GPU_MODEL = {"hops": "H100-SXM-80G", "eldorado": "MI300A-120G",
             "goodall": "H100-NVL-94G", "cee": "A100-SXM-80G"}


@dataclass
class ConvergedSite:
    """Everything Figure 1 shows, wired together."""

    kernel: SimKernel
    fabric: Fabric
    s3: ObjectStore
    hub: ModelHub
    gitlab: Registry
    quay: Registry
    hops: HPCPlatform
    eldorado: HPCPlatform
    goodall: K8sPlatform
    cee: K8sPlatform
    user_host: str = "user-workstation"
    hf_token: str = HF_TOKEN
    s3_env: dict[str, str] = field(default_factory=dict)

    def platform(self, name: str):
        if name not in PLATFORM_KINDS:
            from ..errors import NotFoundError
            raise NotFoundError(
                f"unknown platform {name!r}; site has "
                f"{sorted(PLATFORM_KINDS)}")
        return getattr(self, name)

    @property
    def platforms(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in PLATFORM_KINDS}


def _hpc_node_spec(name: str, platform: str) -> NodeSpec:
    return NodeSpec(
        name=name, cpus=96, memory_bytes=768 * GiB,
        gpus=tuple([gpu_spec(GPU_MODEL[platform])] * GPUS_PER_NODE[platform]),
        nics=(NicSpec("hsn0", gbps(200), "hsn"),
              NicSpec("eth0", gbps(25), "campus")))


def build_sandia_site(seed: int = 0, hops_nodes: int = 16,
                      eldorado_nodes: int = 16, goodall_nodes: int = 6,
                      cee_nodes: int = 4,
                      misroute_hops_s3: bool = True) -> ConvergedSite:
    """Assemble the full converged site.

    ``misroute_hops_s3`` reproduces the initial (slow) routing state of
    Section 2.4; :func:`apply_s3_routing_fix` applies the fix.
    """
    kernel = SimKernel(seed=seed)
    fabric = Fabric(kernel)

    # -- site core network ------------------------------------------------------
    spine = fabric.add_switch("site-spine")
    campus = fabric.add_switch("campus-net")
    fabric.connect(spine, campus, gbps(100))
    fabric.add_host("user-workstation", zone="external",
                    externally_reachable=True)
    fabric.connect("user-workstation", campus, gbps(1))
    # Internet uplink (model downloads only).
    fabric.add_host("huggingface.co", zone="internet",
                    externally_reachable=True)
    fabric.connect("huggingface.co", campus, gbps(10), name="internet-uplink")

    # -- object storage (two sites) -----------------------------------------------
    fabric.add_host("s3-abq", zone="site")
    fabric.connect("s3-abq", spine, gbps(400), name="s3-abq-frontend")
    fabric.add_host("s3-liv", zone="site")
    fabric.connect("s3-liv", spine, gbps(400), name="s3-liv-frontend")
    s3 = ObjectStore(kernel, fabric, endpoint="s3.sandia.example",
                     replication_lag=30.0)
    s3.add_site("albuquerque", "s3-abq")
    s3.add_site("livermore", "s3-liv")
    s3.add_credentials(S3_KEY, S3_SECRET)

    # -- registries ------------------------------------------------------------------
    fabric.add_host("gitlab-registry", zone="site")
    fabric.connect("gitlab-registry", spine, gbps(25))
    fabric.add_host("quay-registry", zone="site")
    fabric.connect("quay-registry", spine, gbps(50))
    gitlab = Registry(kernel, fabric, "gitlab", "gitlab-registry")
    quay = Registry(kernel, fabric, "quay", "quay-registry",
                    scan_on_push=True)
    gitlab.add_mirror(quay, lag=60.0)
    for image in (vllm_cuda_image(), vllm_rocm_image(), alpine_git_image(),
                  aws_cli_image()):
        gitlab.seed(image)
        quay.seed(image)

    # -- model hub --------------------------------------------------------------------
    hub = ModelHub(kernel, fabric, host="huggingface.co")
    for card in (llama4_scout(), llama4_scout_quantized(), llama31_405b()):
        hub.publish(card, gated=True)
    hub.grant_token(HF_TOKEN)

    # -- Hops (Slurm + H100) ------------------------------------------------------------
    from ..wlm.slurm import SlurmManager
    hops = _build_hpc_platform(
        kernel, fabric, spine, name="hops", prefix="hops", n_nodes=hops_nodes,
        wlm_cls=SlurmManager, registry=gitlab, campus=campus)
    if misroute_hops_s3:
        # Initial state of Section 2.4: Hops -> S3 hairpins through the
        # 25 Gbps campus path instead of the 400 Gbps spine uplink.
        fabric.add_route("zone:hops", "s3-abq",
                         via=["hops-hsn", "campus-net", "site-spine"])

    # -- El Dorado (Flux + MI300A) -------------------------------------------------------
    from ..wlm.flux import FluxManager
    eldorado = _build_hpc_platform(
        kernel, fabric, spine, name="eldorado", prefix="eldo",
        n_nodes=eldorado_nodes, wlm_cls=FluxManager, registry=gitlab,
        start=1001, width=4)

    # -- Goodall (OpenShift + H100 NVL) ---------------------------------------------------
    goodall = _build_k8s_platform(
        kernel, fabric, spine, name="goodall", n_nodes=goodall_nodes,
        registry=quay)

    # -- CEE-OpenShift (production, A100) ---------------------------------------------------
    cee = _build_k8s_platform(
        kernel, fabric, spine, name="cee", n_nodes=cee_nodes, registry=quay)

    site = ConvergedSite(
        kernel=kernel, fabric=fabric, s3=s3, hub=hub, gitlab=gitlab,
        quay=quay, hops=hops, eldorado=eldorado, goodall=goodall, cee=cee,
        s3_env={
            "AWS_ACCESS_KEY_ID": S3_KEY,
            "AWS_SECRET_ACCESS_KEY": S3_SECRET,
            "AWS_ENDPOINT_URL": "s3.sandia.example",
            "AWS_REQUEST_CHECKSUM_CALCULATION": "when_required",
            "AWS_MAX_ATTEMPTS": "10",
        })
    kernel.trace.emit("site.built", platforms=sorted(PLATFORM_KINDS))
    return site


def _build_hpc_platform(kernel, fabric, spine, name: str, prefix: str,
                        n_nodes: int, wlm_cls, registry: Registry,
                        campus=None, **numbering) -> HPCPlatform:
    """One HPC platform: a high-speed switch with login, service and
    Lustre hosts, its nodes, and its workload manager.  ``campus`` adds
    Hops's 25 Gbps campus link; ``numbering`` is ``make_nodes``'s."""
    switch = fabric.add_switch(f"{prefix}-hsn")
    fabric.connect(switch, spine, gbps(400), name=f"{prefix}-uplink")
    if campus is not None:
        fabric.connect(switch, campus, gbps(25), name=f"{prefix}-campus")
    for role, bandwidth in (("login", 25), ("svc", 25), ("lustre", 800)):
        fabric.add_host(f"{prefix}-{role}", zone=name,
                        externally_reachable=role != "lustre")
        fabric.connect(f"{prefix}-{role}", switch, gbps(bandwidth))
    nodes = make_nodes(prefix, n_nodes, _hpc_node_spec(f"{prefix}-node", name),
                       **numbering)
    for node in nodes:
        fabric.add_host(node.hostname, zone=name)
        fabric.connect(node.hostname, switch, gbps(200))
    fs = ParallelFilesystem(kernel, fabric, f"{prefix}-lustre",
                            f"{prefix}-lustre", mounted_platforms=[name])
    wlm = wlm_cls(kernel, nodes, platform=name)
    proxy = NginxProxy(fabric, f"{prefix}-svc")
    return HPCPlatform(
        name=name, kernel=kernel, fabric=fabric, nodes=nodes, wlm=wlm,
        filesystem=fs, podman=PodmanRuntime(kernel, fabric, registry),
        apptainer=ApptainerRuntime(kernel, fabric, registry, fs),
        login_host=f"{prefix}-login", service_host=f"{prefix}-svc",
        proxy=proxy, cal=ComputeAsLogin(fabric, proxy),
        gpu_variant="rocm" if "MI300" in GPU_MODEL[name] else "cuda",
        default_runtime="podman")


def _build_k8s_platform(kernel, fabric, spine, name: str, n_nodes: int,
                        registry: Registry) -> K8sPlatform:
    gpu_name = GPU_MODEL[name]
    switch = fabric.add_switch(f"{name}-net")
    fabric.connect(switch, spine, gbps(200), name=f"{name}-uplink")
    fabric.add_host(f"{name}-ingress", zone=name, externally_reachable=True)
    fabric.connect(f"{name}-ingress", switch, gbps(50))
    fabric.add_host(f"{name}-ceph", zone=name)
    fabric.connect(f"{name}-ceph", switch, gbps(400))
    spec = NodeSpec(
        name=f"{name}-node", cpus=64, memory_bytes=512 * GiB,
        gpus=tuple([gpu_spec(gpu_name)] * GPUS_PER_NODE[name]),
        nics=(NicSpec("eth0", gbps(100), name),))
    nodes = make_nodes(name, n_nodes, spec)
    for node in nodes:
        fabric.add_host(node.hostname, zone=name)
        fabric.connect(node.hostname, switch, gbps(100))
    cluster = KubernetesCluster(
        kernel, fabric, name, nodes, registry,
        frontend_host=f"{name}-ingress",
        storage_backend_host=f"{name}-ceph",
        node_labels={n.hostname: {"gpu": gpu_name} for n in nodes})
    variant = "rocm" if "MI300" in gpu_name else "cuda"
    return K8sPlatform(name=name, kernel=kernel, fabric=fabric,
                       cluster=cluster, gpu_variant=variant)


def apply_s3_routing_fix(site: ConvergedSite) -> None:
    """The Section 2.4 fix: stop hairpinning Hops S3 traffic through the
    campus network; let it take the 400 Gbps spine path."""
    site.fabric.remove_route("zone:hops", "s3-abq")
    site.kernel.trace.emit("site.s3_routing_fixed")
