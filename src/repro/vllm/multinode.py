"""Multi-node inference: Ray cluster under a WLM job, then vLLM on top.

Section 3.5 of the paper: *"we achieve this by deploying a multi-node job
running one vLLM container per node, executing the Ray cluster startup
command as its entry point.  Once the Ray cluster is established, we exec
into one of the vLLM containers (any works) and start the vLLM server."*

:class:`MultiNodeEngineLauncher` does exactly that.  Its one ``vllm
serve`` is the single-node server's own startup: started inside the
cluster, it claims a placement group of one TP bundle per pipeline
stage, and each stage node loads its shard of the weights.  Tensor
parallelism runs within each node, pipeline parallelism between nodes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Any

from ..containers.image import ImageManifest, register_app
from ..containers.runtime import (Container, ContainerApp, ContainerContext,
                                  ContainerRuntime, RunOpts)
from ..errors import ConfigurationError
from ..rayclu import RayCluster
from .config import OFFLINE_ENV_FLAGS, EngineArgs, parse_serve_command
from .server import VllmOpenAIServer

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.node import Node
    from ..storage.mounts import MountHandle

#: Where every container of the job binds the model directory.
MODELS_DIR = "/vllm-workspace/models"


@register_app("ray-node")
class RayNodeApp(ContainerApp):
    """The per-node vLLM container whose entrypoint starts Ray
    (``run-cluster.sh --head|--worker`` in paper Figure 11).  Its raylet
    runs until the container is stopped or the cluster shuts down."""

    def startup(self, ctx: ContainerContext):
        ctx.check_expectations()
        cluster: RayCluster = ctx.opts.extras["ray_cluster"]
        role = ctx.env.get("RAY_ROLE", "worker")
        if role == "head":
            yield from cluster.start_head(ctx.node)
        else:
            yield from cluster.join_worker(ctx.node)

    def run(self, ctx: ContainerContext):
        cluster: RayCluster = ctx.opts.extras["ray_cluster"]
        yield ctx.kernel.any_of([ctx.stop_event, cluster.stopped])


@dataclass
class MultiNodeDeployment:
    """A running multi-node vLLM service."""

    ray: RayCluster
    #: one ``ray-node`` container per node, the Ray head's first
    containers: list[Container]
    #: ``vllm serve``, exec'd into the head's container
    head: Container

    @property
    def server(self) -> VllmOpenAIServer:
        return self.head.app  # type: ignore[return-value]

    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.head.node.hostname, self.server.args.port)

    def stop(self) -> None:
        """Stop ``vllm serve``; the Ray cluster and its containers follow."""
        self.head.stop()


class MultiNodeEngineLauncher:
    """Brings up Ray + a TP x PP ``vllm serve`` over a node allocation.

    ``model_mount`` is the models directory (the server finds
    ``args.model`` under it); ``extras`` reach the server's
    ``RunOpts.extras`` (``perf_profile``, ``fault_plan``).
    """

    def __init__(self, runtime: ContainerRuntime, image: ImageManifest | str,
                 args: EngineArgs, model_mount: MountHandle,
                 extras: dict[str, Any] | None = None):
        from ..core.package import vllm_package  # repro.core imports us

        if args.pipeline_parallel_size < 2:
            raise ConfigurationError(
                "use the single-node server for pipeline_parallel_size=1")
        # The deploy tool's argv, which the head's server parses back.
        self.command = vllm_package().command(asdict(args))
        if parse_serve_command(self.command) != args:
            raise ConfigurationError(
                "the vllm serve argv cannot carry these engine arguments "
                "(the deploy tool sets host and port itself)")
        self.runtime = runtime
        self.image = image
        self.args = args
        self.model_mount = model_mount
        self.extras = dict(extras or {})

    def launch(self, nodes: list[Node]):
        """Generator: returns a ready :class:`MultiNodeDeployment`."""
        args = self.args
        if len(nodes) != args.pipeline_parallel_size:
            raise ConfigurationError(
                f"pipeline_parallel_size={args.pipeline_parallel_size} "
                f"needs exactly that many nodes, got {len(nodes)}")
        ray = RayCluster(self.runtime.kernel)
        base = RunOpts(
            env={flag: "1" for flag in OFFLINE_ENV_FLAGS},
            mounts={MODELS_DIR: self.model_mount}, workdir=MODELS_DIR,
            network_host=True, ipc_host=True, gpus="all",
            apptainer_fakeroot=True, apptainer_writable_tmpfs=True,
            apptainer_cleanenv=True, apptainer_no_home=True,
            apptainer_nv=True)

        # One vLLM container per node; entrypoint = Ray bootstrap.
        containers: list[Container] = []
        for i, node in enumerate(nodes):
            opts = replace(
                base, name=f"vllm-ray-{node.hostname}",
                env={"RAY_ROLE": "head" if i == 0 else "worker", **base.env},
                entrypoint="run-cluster.sh",
                extras={"ray_cluster": ray, "app_override": "ray-node"})
            container = yield from self.runtime.run(node, self.image, opts)
            containers.append(container)
        for container in containers:
            yield container.ready
        yield from ray.wait_for_size(len(nodes))

        # Exec into the head's container and start the one vLLM server.
        head = self.runtime.exec(containers[0], replace(
            base, name=f"vllm-serve-{nodes[0].hostname}", entrypoint="vllm",
            command=self.command,
            extras={**self.extras, "ray_cluster": ray}))
        yield head.ready
        return MultiNodeDeployment(ray=ray, containers=containers, head=head)
