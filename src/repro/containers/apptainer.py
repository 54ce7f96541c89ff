"""Apptainer-like runtime: user-mapped, home-automounting by default.

Section 3.2: *"Apptainer, by default, runs the container as the calling
user and automatically maps in their home directory.  These differences
cause the vLLM container to crash at startup using Apptainer's default
configuration."*  The paper's Figure 5 shows the adapted flags —
``--fakeroot --writable-tmpfs --cleanenv --no-home --nv`` — all modeled
here, plus OCI->SIF conversion when given a non-SIF reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..hardware.node import Node
from ..storage.filesystem import ParallelFilesystem
from .image import ImageManifest, SifImage, flatten_to_sif
from .registry import Registry
from .runtime import ContainerRuntime, EffectiveEnvironment, RunOpts

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel
    from ..net.topology import Fabric

#: apptainer build: unpack + mksquashfs rate, bytes/second.
SIF_BUILD_RATE = 400e6


class ApptainerRuntime(ContainerRuntime):
    """Apptainer with a parallel-filesystem SIF store.

    Running an OCI reference triggers ``apptainer build`` (pull + flatten
    to SIF on the platform filesystem); running a :class:`SifImage` that is
    already on the filesystem skips the registry entirely — the Section 2.3
    mitigation for registry pull storms.
    """

    name = "apptainer"

    def __init__(self, kernel: SimKernel, fabric: Fabric,
                 registry: Registry, filesystem: ParallelFilesystem):
        super().__init__(kernel, fabric, registry)
        self.filesystem = filesystem
        self.sif_store: dict[str, SifImage] = {}

    def effective_environment(self, opts: RunOpts,
                              gpus_visible: int) -> EffectiveEnvironment:
        return EffectiveEnvironment(
            runtime=self.name,
            run_as_root=opts.apptainer_fakeroot,
            writable_rootfs=opts.apptainer_writable_tmpfs,
            isolated_home=opts.apptainer_no_home,
            clean_env=opts.apptainer_cleanenv,
            host_network=True,   # apptainer shares the host network ns
            host_ipc=True,       # and the host IPC ns
            gpus_visible=gpus_visible if opts.apptainer_nv else 0,
        )

    # -- SIF management -----------------------------------------------------------

    def build_sif(self, node: Node, ref: str, path: str):
        """``apptainer build``: pull OCI layers then flatten to a SIF file
        on the parallel filesystem (generator; returns SifImage)."""
        cache = self.cache_for(node)
        manifest = yield from self.registry.pull(cache, ref)
        yield manifest.size / SIF_BUILD_RATE
        sif = flatten_to_sif(manifest, path)
        yield from self.filesystem.write(node.hostname, path, sif.size)
        self.sif_store[path] = sif
        self.kernel.trace.emit("apptainer.build", ref=ref, path=path,
                               size=sif.size)
        return sif

    def stage_image(self, node: Node, image: ImageManifest | SifImage | str):
        if isinstance(image, SifImage):
            if image.path not in self.sif_store and \
                    not self.filesystem.exists(image.path):
                raise ConfigurationError(
                    f"SIF file {image.path!r} not found on "
                    f"{self.filesystem.name}")
            # Node reads the SIF from the parallel FS (page cache warm-up);
            # all nodes share the FS bandwidth rather than the registry.
            yield from self.filesystem.read(node.hostname, image.path)
            return image.source
        ref = image.ref if isinstance(image, ImageManifest) else image
        sif_path = f"/images/{ref.replace('/', '_').replace(':', '_')}.sif"
        existing = self.sif_store.get(sif_path)
        if existing is None:
            existing = yield from self.build_sif(node, ref, sif_path)
        else:
            yield from self.filesystem.read(node.hostname, sif_path)
        return existing.source

    def cli(self, image_ref: str, opts: RunOpts) -> list[str]:
        """Equivalent ``apptainer exec`` argv (cf. paper Figure 5)."""
        argv = ["apptainer", "exec"]
        if opts.apptainer_fakeroot:
            argv.append("--fakeroot")
        if opts.apptainer_writable_tmpfs:
            argv.append("--writable-tmpfs")
        if opts.apptainer_cleanenv:
            argv.append("--cleanenv")
        if opts.apptainer_no_home:
            argv.append("--no-home")
        if opts.apptainer_nv:
            argv.append("--nv")
        for key, value in opts.env.items():
            argv.append(f'-e "{key}={value}"')
        for host_path, cont_path in opts.volumes.items():
            argv.append(f"--bind {host_path}:{cont_path}")
        if opts.workdir:
            argv.append(f"--cwd {opts.workdir}")
        argv.append(image_ref)
        if opts.entrypoint:
            argv.append(opts.entrypoint)
        argv.extend(opts.command)
        return argv
