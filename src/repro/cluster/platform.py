"""Platform wrappers: everything one computing platform offers its users."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..containers.apptainer import ApptainerRuntime
from ..containers.podman import PodmanRuntime
from ..hardware.node import Node
from ..k8s.cluster import KubernetesCluster
from ..net.cal import ComputeAsLogin
from ..net.proxy import NginxProxy
from ..storage.filesystem import ParallelFilesystem
from ..storage.mounts import PfsMount
from ..wlm.base import WorkloadManager

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel
    from ..net.topology import Fabric


@dataclass
class HPCPlatform:
    """An HPC platform: nodes + WLM + PFS + container runtimes + ingress.

    ``gpu_variant`` tells the deployment tool which container build the
    platform needs (CUDA vs ROCm) — the Section 4 "computing platform
    differences" problem.
    """

    name: str
    kernel: SimKernel
    fabric: Fabric
    nodes: list[Node]
    wlm: WorkloadManager
    filesystem: ParallelFilesystem
    podman: PodmanRuntime
    apptainer: ApptainerRuntime
    login_host: str
    service_host: str
    proxy: NginxProxy
    cal: ComputeAsLogin
    gpu_variant: str = "cuda"
    default_runtime: str = "podman"

    @property
    def gpus_per_node(self) -> int:
        return self.nodes[0].spec.gpu_count

    @property
    def gpu_spec(self):
        return self.nodes[0].spec.gpus[0]

    def models_mount(self, subdir: str = "/models") -> PfsMount:
        """The shared model directory users bind into containers."""
        return PfsMount(self.filesystem, subdir)

    def runtime(self, name: str | None = None):
        chosen = name or self.default_runtime
        if chosen == "podman":
            return self.podman
        if chosen == "apptainer":
            return self.apptainer
        from ..errors import NotFoundError
        raise NotFoundError(f"platform {self.name!r} has no runtime "
                            f"{chosen!r} (podman|apptainer)")


@dataclass
class K8sPlatform:
    """A Kubernetes platform (OpenShift-like) plus its site metadata."""

    name: str
    kernel: SimKernel
    fabric: Fabric
    cluster: KubernetesCluster
    gpu_variant: str = "cuda"

    @property
    def nodes(self) -> list[Node]:
        return [kn.node for kn in self.cluster.nodes]

    @property
    def gpus_per_node(self) -> int:
        return self.nodes[0].spec.gpu_count

    @property
    def gpu_spec(self):
        return self.nodes[0].spec.gpus[0]
