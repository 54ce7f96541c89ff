"""Container runtime core: run options, effective environments, lifecycle.

The paper's central observation is that Podman, Apptainer, and Kubernetes
present *different default execution environments* to the same container
image.  We make that explicit: a runtime maps :class:`RunOpts` to an
:class:`EffectiveEnvironment`; the containerized app validates the image's
:class:`~repro.containers.image.ExecutionExpectations` against it at startup
and crashes on mismatch — exactly how the vLLM container fails under
Apptainer's defaults in Section 3.2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError, ContainerCrash, StateError
from ..hardware.node import Node
from ..simkernel import Event, Interrupted
from .image import ImageManifest, SifImage, app_factory
from .registry import ImageCache, Registry

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel
    from ..net.topology import Fabric


@dataclass
class RunOpts:
    """Portable subset of container run options plus runtime-specific flags.

    The generic fields cover Podman/K8s; the ``apptainer_*`` flags are the
    adaptation knobs from the paper's Figure 5 (``--fakeroot``,
    ``--writable-tmpfs``, ``--cleanenv``, ``--no-home``, ``--nv``).
    """

    name: str = ""
    env: dict[str, str] = field(default_factory=dict)
    volumes: dict[str, str] = field(default_factory=dict)  # host -> container
    #: simulation-side data handles: container path -> MountHandle
    mounts: dict[str, Any] = field(default_factory=dict)
    #: simulation-side extras (fault plans, perf profiles, cluster handles)
    extras: dict[str, Any] = field(default_factory=dict)
    workdir: str = ""
    entrypoint: str | None = None
    command: tuple[str, ...] = ()
    network_host: bool = False
    ipc_host: bool = False
    gpus: str | int | None = None  # "all", a count, or None
    remove_on_exit: bool = True
    # Apptainer-specific adaptation flags:
    apptainer_fakeroot: bool = False
    apptainer_writable_tmpfs: bool = False
    apptainer_cleanenv: bool = False
    apptainer_no_home: bool = False
    apptainer_nv: bool = False


@dataclass(frozen=True)
class EffectiveEnvironment:
    """The environment a runtime actually presents to the container."""

    runtime: str
    run_as_root: bool
    writable_rootfs: bool
    isolated_home: bool
    clean_env: bool
    host_network: bool
    host_ipc: bool
    gpus_visible: int


class ContainerContext:
    """Everything an app sees: node, env vars, GPUs, network identity."""

    def __init__(self, kernel: SimKernel, fabric: Fabric, node: Node,
                 container: Container, effective: EffectiveEnvironment,
                 opts: RunOpts):
        self.kernel = kernel
        self.fabric = fabric
        self.node = node
        self.container = container
        self.effective = effective
        self.opts = opts
        self.env = dict(opts.env)
        self.gpu_indices: list[int] = []
        self.stop_event: Event = kernel.event()

    @property
    def hostname(self) -> str:
        return self.node.hostname

    def mount(self, container_path: str):
        """The MountHandle at ``container_path`` (longest-prefix match)."""
        best = None
        for path, handle in self.opts.mounts.items():
            if container_path == path or container_path.startswith(
                    path.rstrip("/") + "/"):
                if best is None or len(path) > len(best[0]):
                    best = (path, handle)
        if best is None:
            raise ConfigurationError(
                f"no mount provides {container_path!r}; "
                f"mounts: {sorted(self.opts.mounts)}")
        return best[1]

    def check_expectations(self) -> None:
        """Raise :class:`ContainerCrash` if the environment violates the
        image's declared expectations (app startup failure)."""
        exp = self.container.image.expectations
        eff = self.effective
        problems: list[str] = []
        if exp.run_as_root and not eff.run_as_root:
            problems.append(
                "EACCES: cannot write /root/.cache/huggingface "
                "(container runs as calling user, expected root)")
        if exp.writable_rootfs and not eff.writable_rootfs:
            problems.append(
                "OSError: read-only file system: '/vllm-workspace/.cache'")
        if exp.isolated_home and not eff.isolated_home:
            problems.append(
                "startup picked up ~/.local site-packages from the "
                "auto-mounted home directory and failed to import torch")
        if exp.clean_env and not eff.clean_env:
            problems.append(
                "host environment leaked into the container "
                "(e.g. PYTHONPATH) and broke the bundled python")
        if exp.host_network and not eff.host_network:
            problems.append(
                "server bound inside an isolated network namespace; "
                "endpoint unreachable (need --network=host)")
        if exp.host_ipc and not eff.host_ipc:
            problems.append(
                "NCCL error: shared memory unavailable (need --ipc=host)")
        if exp.needs_gpus and eff.gpus_visible == 0:
            problems.append("RuntimeError: no GPU devices visible")
        if problems:
            raise ContainerCrash(
                f"{self.container.image.ref} failed under "
                f"{eff.runtime} defaults: " + "; ".join(problems),
                sim_time=self.kernel.now)


class ContainerApp:
    """Base class for simulated containerized applications.

    ``startup`` runs to readiness (may take simulated time and crash);
    ``run`` is the long-running phase (servers wait for ``ctx.stop_event``,
    batch jobs return immediately).  Both are generators.
    """

    def startup(self, ctx: ContainerContext):
        ctx.check_expectations()
        return
        yield  # pragma: no cover - makes this a generator

    def run(self, ctx: ContainerContext):
        return
        yield  # pragma: no cover

    def shutdown(self, ctx: ContainerContext) -> None:
        """Synchronous cleanup on stop/crash."""


class Container:
    """A container instance on a node.

    Events: ``ready`` fires when startup completes (fails on startup
    crash); ``exited`` always *succeeds* with the integer exit code, so
    supervisors (Kubernetes controllers) can observe crashes without
    exception plumbing.
    """

    _ids = itertools.count(1)

    def __init__(self, kernel: SimKernel, fabric: Fabric, node: Node,
                 image: ImageManifest, runtime: ContainerRuntime,
                 opts: RunOpts, effective: EffectiveEnvironment):
        self.id = f"c{next(Container._ids):05d}"
        self.kernel = kernel
        self.image = image
        self.node = node
        self.runtime = runtime
        self.opts = opts
        self.name = opts.name or f"{image.repository.split('/')[-1]}-{self.id}"
        self.state = "created"
        self.exit_code: int | None = None
        self.exit_reason = ""
        self.ready: Event = kernel.event()
        self.exited: Event = kernel.event()
        self.ctx = ContainerContext(kernel, fabric, node, self, effective, opts)
        # A custom entrypoint can rebind the container behavior (e.g. the
        # multi-node flow runs the vLLM image with a Ray bootstrap
        # entrypoint, paper Fig. 11).
        app_key = opts.extras.get("app_override", image.app)
        self.app: ContainerApp = app_factory(app_key)()
        self._proc = None

    def start(self) -> None:
        if self.state != "created":
            raise StateError(f"container {self.name} already {self.state}")
        self.state = "running"
        self._proc = self.kernel.spawn(self._lifecycle(self.kernel),
                                       name=f"container:{self.name}")
        self.kernel.trace.emit("container.start", name=self.name,
                               image=self.image.ref,
                               node=self.node.hostname,
                               runtime=self.runtime.name)

    def _lifecycle(self, env):
        try:
            yield from self.app.startup(self.ctx)
        except Interrupted:
            self._finish(137, "stopped during startup")
            return
        except ContainerCrash as crash:
            if not self.ready.triggered:
                self.ready.fail(crash)
            self._finish(1, str(crash))
            return
        except Exception as exc:  # app bug: surface as a crash, not a hang
            crash = ContainerCrash(f"{self.name}: startup error: {exc!r}",
                                   sim_time=self.kernel.now)
            if not self.ready.triggered:
                self.ready.fail(crash)
            self._finish(1, str(crash))
            return
        if not self.ready.triggered:
            self.ready.succeed(self)
        try:
            yield from self.app.run(self.ctx)
        except Interrupted:
            self._finish(137, "stopped")
            return
        except ContainerCrash as crash:
            self._finish(1, str(crash))
            return
        except Exception as exc:  # app bug: crash, don't hang
            self._finish(1, f"runtime error: {exc!r}")
            return
        self._finish(0, "completed")

    def _finish(self, code: int, reason: str) -> None:
        self.state = "exited"
        self.exit_code = code
        self.exit_reason = reason
        try:
            self.app.shutdown(self.ctx)
        finally:
            self.runtime._release(self)
            if not self.ready.triggered:
                # Batch containers may exit before anyone awaited readiness.
                if code == 0:
                    self.ready.succeed(self)
                else:
                    self.ready.fail(ContainerCrash(reason,
                                                   sim_time=self.kernel.now))
            self.exited.succeed(code)
            self.kernel.trace.emit("container.exit", name=self.name,
                                   code=code, reason=reason)

    def stop(self) -> None:
        """SIGTERM: interrupt the app; exit code 137 if it was running."""
        if self.state == "running" and self._proc is not None:
            self._proc.interrupt("stop")

    @property
    def running(self) -> bool:
        return self.state == "running"


class ContainerRuntime:
    """Base runtime: image staging + environment mapping + lifecycle.

    Images are pulled from ``registry`` into a per-node layer cache.
    """

    name = "abstract"
    #: What the SIF refusal in :meth:`stage_image` calls the runtime.
    oci_runner = "abstract"

    def __init__(self, kernel: SimKernel, fabric: Fabric,
                 registry: Registry):
        self.kernel = kernel
        self.fabric = fabric
        self.registry = registry
        self.caches: dict[str, ImageCache] = {}
        self.containers: list[Container] = []

    def cache_for(self, node: Node) -> ImageCache:
        cache = self.caches.get(node.hostname)
        if cache is None:
            cache = ImageCache(node.hostname)
            self.caches[node.hostname] = cache
        return cache

    def stage_image(self, node: Node, image: ImageManifest | SifImage | str):
        """Generator: pull the OCI image into the node's cache unless it
        is there; returns the manifest."""
        if isinstance(image, SifImage):
            raise TypeError(f"{self.oci_runner} runs OCI images, not SIF files")
        ref = image.ref if isinstance(image, ImageManifest) else image
        cache = self.cache_for(node)
        if cache.has_image(ref):
            return cache.images[ref]
        manifest = yield from self.registry.pull(cache, ref)
        return manifest

    # -- to be provided by concrete runtimes ------------------------------------

    def effective_environment(self, opts: RunOpts,
                              gpus_visible: int) -> EffectiveEnvironment:
        raise NotImplementedError

    def cli(self, image_ref: str, opts: RunOpts) -> list[str]:
        """The equivalent command line (for docs / artifact generation)."""
        raise NotImplementedError

    # -- common ---------------------------------------------------------------------

    def _gpu_count(self, node: Node, opts: RunOpts) -> int:
        if opts.gpus is None:
            return 0
        if opts.gpus == "all":
            return node.gpus_free
        return int(opts.gpus)

    def run(self, node: Node, image: ImageManifest | SifImage | str,
            opts: RunOpts | None = None):
        """Generator: stage the image, create and start the container.

        Returns the :class:`Container` as soon as it is *started* —
        callers wait on ``container.ready`` for app readiness.
        """
        opts = opts or RunOpts()
        manifest = yield from self.stage_image(node, image)
        n_gpus = self._gpu_count(node, opts)
        gpu_indices = node.allocate_gpus(n_gpus) if n_gpus else []
        effective = self.effective_environment(opts, gpus_visible=n_gpus)
        container = Container(self.kernel, self.fabric, node, manifest,
                              self, opts, effective)
        container.ctx.gpu_indices = gpu_indices
        self.containers.append(container)
        container.start()
        return container

    def exec(self, container: Container, opts: RunOpts) -> Container:
        """``podman exec``: start ``opts``' app as another process inside
        the running ``container``, in its environment and seeing its GPUs.

        The process has its own lifecycle (``ready``, ``exited``) but
        holds no GPUs of its own; ``container`` keeps them.
        """
        process = Container(self.kernel, self.fabric, container.node,
                            container.image, self, opts,
                            container.ctx.effective)
        self.containers.append(process)
        process.start()
        return process

    def _release(self, container: Container) -> None:
        if container.ctx.gpu_indices:
            container.node.release_gpus(container.ctx.gpu_indices)
            container.ctx.gpu_indices = []
