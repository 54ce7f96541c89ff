"""The unified deployment tool: one ``deploy()`` across all platforms.

This is the prototype the paper says it has begun building: *"One way to
think of such a tool is as a package manager for deploying containerized
applications and services, similar in concept to how the Spack tool serves
as a package manager for ... scientific software."*

``Deployer.deploy(package, platform, ...)`` resolves:

* the hardware-correct image variant (CUDA on Hops/Goodall, ROCm on El
  Dorado);
* runtime adaptation flags from the image's execution-environment
  expectations (Podman gets ``--network=host --ipc=host --device ...``;
  Apptainer gets ``--fakeroot --writable-tmpfs --cleanenv --no-home
  --nv``);
* the configuration profile's environment (offline serving);
* platform-specific staging (PFS bind mount on HPC; PVC + S3 init
  container via Helm on Kubernetes);

and returns a uniform :class:`Deployment` handle with the endpoint and the
equivalent CLI/Helm artifact for transparency.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field
from typing import Any

from ..cluster.platform import HPCPlatform, K8sPlatform
from ..cluster.profiles import PERF_PROFILES
from ..containers.image import ExecutionExpectations
from ..containers.runtime import Container, RunOpts
from ..errors import NotFoundError, StateError
from ..hardware.node import Node
from ..k8s.helm import HelmRelease
from ..net.http import lookup
from ..vllm.config import parse_serve_command
from .package import AppPackage
from .site import ConvergedSite
from .translate import helm_values_for

#: Perf-profile variant keys by (model name substring, quantized?).
_VARIANT_KEYS = {
    "Llama-4-Scout-17B-16E-Instruct-quantized.w4a16": "scout-w4a16",
    "Llama-4-Scout-17B-16E-Instruct": "scout-bf16",
    "Llama-3.1-405B": "405b-multinode",
}


def perf_variant_key(model: str) -> str | None:
    for fragment, key in _VARIANT_KEYS.items():
        if fragment in model:
            return key
    return None


@dataclass
class Deployment:
    """Uniform handle over an HPC container or a Helm release."""

    package: AppPackage
    platform_name: str
    mechanism: str                      # "podman" | "apptainer" | "helm"
    endpoint: tuple[str, int]           # (host, port) inside the site
    #: the serving (host, port): the HPC node, or the ready pod's node
    backend: tuple[str, int]
    artifact: Any                       # argv list or helm values dict
    container: Container | None = None  # HPC deployments
    release: HelmRelease | None = None  # K8s deployments
    cluster: Any = None
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def ready_endpoint(self) -> str:
        return f"http://{self.endpoint[0]}:{self.endpoint[1]}"

    def stop(self) -> None:
        if self.container is not None and self.container.running:
            self.container.stop()
        if self.release is not None and self.cluster is not None:
            self.release.uninstall(self.cluster)


class Deployer:
    """Site-aware unified deployer."""

    def __init__(self, site: ConvergedSite):
        self.site = site

    # -- runtime adaptation (the Section 4 automation) ----------------------------

    @staticmethod
    def adapt_opts(expectations: ExecutionExpectations, runtime_name: str,
                   base: RunOpts) -> RunOpts:
        """Set the runtime-specific flags the expectations require."""
        if runtime_name == "podman":
            base.network_host = expectations.host_network
            base.ipc_host = expectations.host_ipc
            if expectations.needs_gpus and base.gpus is None:
                base.gpus = "all"
        elif runtime_name == "apptainer":
            base.apptainer_fakeroot = expectations.run_as_root
            base.apptainer_writable_tmpfs = expectations.writable_rootfs
            base.apptainer_cleanenv = expectations.clean_env
            base.apptainer_no_home = expectations.isolated_home
            base.apptainer_nv = expectations.needs_gpus
            if expectations.needs_gpus and base.gpus is None:
                base.gpus = "all"
        elif runtime_name == "cri":
            pass  # pod semantics already satisfy server expectations
        else:
            raise NotFoundError(f"unknown runtime {runtime_name!r}")
        return base

    # -- HPC path -----------------------------------------------------------------------

    def deploy_hpc(self, platform: HPCPlatform, package: AppPackage,
                   params: dict[str, Any], node: Node | None = None,
                   runtime_name: str | None = None,
                   profile_name: str | None = None):
        """Generator: deploy on an HPC platform node; returns Deployment."""
        runtime_name = runtime_name or platform.default_runtime
        runtime = platform.runtime(runtime_name)
        variant = package.variant_for(platform.gpu_variant)
        manifest = runtime.registry.resolve(variant.image_ref)
        profile = package.profile(profile_name)

        command = package.command(params)
        gpus = parse_serve_command(command).world_size
        chosen = node or self.pick_node(platform, gpus, package.service_port)
        opts = RunOpts(
            name=params.get("name", package.name),
            env={**profile.env, **params.get("env", {})},
            entrypoint=package.entrypoint or None,
            command=command,
            gpus=gpus,
            volumes={"./models": "/vllm-workspace/models"},
            mounts={"/vllm-workspace/models": platform.models_mount()},
            workdir="/vllm-workspace/models",
            extras=self._extras(platform.name, params),
        )
        self.adapt_opts(manifest.expectations, runtime_name, opts)

        container = yield from runtime.run(chosen, manifest, opts)
        yield container.ready
        artifact = runtime.cli(variant.image_ref, opts)
        backend = (chosen.hostname, package.service_port)
        deployment = Deployment(
            package=package, platform_name=platform.name,
            mechanism=runtime_name, endpoint=backend, backend=backend,
            artifact=artifact, container=container, params=dict(params))
        self.site.kernel.trace.emit(
            "deployer.deployed", package=package.name,
            platform=platform.name, mechanism=runtime_name,
            node=chosen.hostname)
        return deployment

    def fits(self, node: Node, gpus: int, port: int) -> bool:
        """The HPC placement rule: ``node`` is up, has ``gpus`` free GPUs
        and nothing bound on ``port`` (one replica per node per service
        port, as :meth:`PodScheduler.fits
        <repro.k8s.scheduler.PodScheduler.fits>` rules on Kubernetes)."""
        return (node.up and node.gpus_free >= gpus
                and lookup(self.site.fabric, node.hostname, port) is None)

    def free_slots(self, platform: HPCPlatform | K8sPlatform, gpus: int,
                   port: int) -> int:
        """How many nodes of ``platform`` can take one more replica of
        ``gpus`` GPUs serving on ``port``, under that platform kind's
        placement rule."""
        if isinstance(platform, HPCPlatform):
            return sum(self.fits(node, gpus, port) for node in platform.nodes)
        fits = platform.cluster.scheduler.fits
        return sum(fits(knode, gpus, port)
                   for knode in platform.cluster.nodes)

    def pick_node(self, platform: HPCPlatform, gpus: int, port: int,
                  exclude: Collection[str] = ()) -> Node:
        """The first idle node that :meth:`fits`, else the first that fits.

        ``exclude`` lets callers resolving a *batch* of placements (the
        fleet deploying several replicas concurrently) keep two deploys
        off the same node before either has bound its port.
        """
        fitting = [n for n in platform.nodes
                   if n.hostname not in exclude and self.fits(n, gpus, port)]
        if not fitting:
            raise StateError(
                f"no node on {platform.name!r} has {gpus} free GPUs "
                f"(and a free port {port})")
        return next((n for n in fitting if n.gpus_used == 0), fitting[0])

    # -- Kubernetes path ------------------------------------------------------------------

    def deploy_k8s(self, platform: K8sPlatform, package: AppPackage,
                   params: dict[str, Any],
                   profile_name: str | None = None):
        """Generator: helm-install on a K8s platform; returns Deployment."""
        variant = package.variant_for(platform.gpu_variant)
        profile = package.profile(profile_name)
        values = helm_values_for(self.site, package, variant, profile, params)
        release_name = params.get("name", package.name)
        release = HelmRelease.install(platform.cluster, release_name, values)
        # Sim-side extras must reach the pod's container: patch the
        # rendered Deployment template (the chart cannot carry live
        # objects, so this mirrors an operator-injected config); the
        # kubelet copies them into each container's RunOpts.
        extras = self._extras(platform.name, params)
        if extras:
            dep = platform.cluster.api.get("Deployment", release_name)
            dep.template._extras = extras  # type: ignore[attr-defined]
        pod = yield from self._wait_ready(platform, release_name)
        deployment = Deployment(
            package=package, platform_name=platform.name, mechanism="helm",
            endpoint=(platform.cluster.ingress.frontend_host,
                      platform.cluster.ingress.port),
            backend=(pod.node_name, package.service_port), artifact=values,
            release=release, cluster=platform.cluster, params=dict(params))
        self.site.kernel.trace.emit(
            "deployer.deployed", package=package.name,
            platform=platform.name, mechanism="helm")
        return deployment

    @staticmethod
    def _extras(platform_name: str, params: dict[str, Any]) -> dict:
        """Sim-side engine extras: the platform's perf profile for the
        model, and a fault plan when ``params`` carries one."""
        extras: dict[str, Any] = {}
        perf = PERF_PROFILES.get(
            (platform_name, perf_variant_key(str(params.get("model", "")))))
        if perf is not None:
            extras["perf_profile"] = perf
        if "fault_plan" in params:
            extras["fault_plan"] = params["fault_plan"]
        return extras

    def _wait_ready(self, platform: K8sPlatform, release_name: str,
                    poll: float = 5.0, timeout: float = 7200.0):
        """Generator: the release's first Running, ready pod.  While none
        serves, a pod's first crash-loop back-off (of its server or of an
        init container) fails with its reason."""
        kernel = self.site.kernel
        deadline = kernel.now + timeout
        while kernel.now < deadline:
            pods = platform.cluster.api.list(
                "Pod", selector={"app": release_name})
            for pod in pods:
                if pod.serving:
                    return pod
            for pod in pods:
                if pod.message.startswith(("CrashLoopBackOff",
                                           "Init:CrashLoopBackOff")):
                    raise StateError(
                        f"release {release_name!r} crash-looped at "
                        f"startup: {pod.termination_message}")
            yield poll
        raise StateError(
            f"release {release_name!r} did not become ready within "
            f"{timeout} s")

    # -- uniform front door ------------------------------------------------------------------

    def deploy(self, package: AppPackage, platform_name: str,
               params: dict[str, Any], node: Node | None = None,
               runtime_name: str | None = None,
               profile_name: str | None = None):
        """Generator: platform-dispatching deploy (the tool's single UI).

        ``node`` and ``runtime_name`` choose the HPC node and container
        runtime; a Kubernetes deploy leaves both to the cluster.
        """
        platform = self.site.platform(platform_name)
        if isinstance(platform, K8sPlatform):
            return (yield from self.deploy_k8s(platform, package, params,
                                               profile_name))
        return (yield from self.deploy_hpc(
            platform, package, params, node, runtime_name, profile_name))
