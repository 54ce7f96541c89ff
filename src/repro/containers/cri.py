"""CRI runtime used by the Kubernetes kubelet.

Pod semantics: containers run as root with a writable overlay, isolated
home and environment, and pod-level networking/IPC that satisfies server
workloads (the image's host_network/host_ipc expectations map to the pod
sandbox, which Kubernetes provides natively).
"""

from __future__ import annotations

from .runtime import ContainerRuntime, EffectiveEnvironment, RunOpts


class CriRuntime(ContainerRuntime):
    """Container runtime interface used by kubelets."""

    name = "cri"
    oci_runner = "kubelet"

    def effective_environment(self, opts: RunOpts,
                              gpus_visible: int) -> EffectiveEnvironment:
        return EffectiveEnvironment(
            runtime=self.name,
            run_as_root=True,
            writable_rootfs=True,
            isolated_home=True,
            clean_env=True,
            host_network=True,   # pod sandbox networking (bindable + routable)
            host_ipc=True,       # pod-shared IPC namespace
            gpus_visible=gpus_visible,
        )

    def cli(self, image_ref: str, opts: RunOpts) -> list[str]:
        # Kubernetes has no CLI equivalent; the Helm chart is the artifact.
        return ["kubectl", "run", opts.name or "pod", f"--image={image_ref}"]
