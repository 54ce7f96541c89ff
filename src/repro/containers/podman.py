"""Podman-like runtime: rootful-in-container, isolated-by-default.

Matches the paper's Figure 4 deployment path on HPC platforms.  Podman's
defaults suit the vLLM image (isolated environment, root inside the
container); host network/IPC and GPU access are opt-in flags.
"""

from __future__ import annotations

from .runtime import ContainerRuntime, EffectiveEnvironment, RunOpts


class PodmanRuntime(ContainerRuntime):
    """Per-platform Podman installation pulling from a registry."""

    name = "podman"
    oci_runner = "podman"

    def effective_environment(self, opts: RunOpts,
                              gpus_visible: int) -> EffectiveEnvironment:
        return EffectiveEnvironment(
            runtime=self.name,
            run_as_root=True,        # default user inside a podman container
            writable_rootfs=True,    # copy-on-write upper layer
            isolated_home=True,      # no automatic $HOME bind mount
            clean_env=True,          # only -e vars enter the container
            host_network=opts.network_host,
            host_ipc=opts.ipc_host,
            gpus_visible=gpus_visible,
        )

    def cli(self, image_ref: str, opts: RunOpts) -> list[str]:
        """Equivalent ``podman run`` argv (cf. paper Figure 4)."""
        argv = ["podman", "run"]
        if opts.remove_on_exit:
            argv.append("--rm")
        if opts.name:
            argv.append(f"--name={opts.name}")
        if opts.network_host:
            argv.append("--network=host")
        if opts.ipc_host:
            argv.append("--ipc=host")
        if opts.entrypoint is not None:
            argv.append(f"--entrypoint={opts.entrypoint}")
        if opts.gpus is not None:
            spec = "all" if opts.gpus == "all" else str(opts.gpus)
            argv.append(f"--device nvidia.com/gpu={spec}")
        for key, value in opts.env.items():
            argv.append(f'-e "{key}={value}"')
        for host_path, cont_path in opts.volumes.items():
            argv.append(f"--volume={host_path}:{cont_path}")
        if opts.workdir:
            argv.append(f"--workdir={opts.workdir}")
        argv.append(image_ref)
        argv.extend(opts.command)
        return argv
