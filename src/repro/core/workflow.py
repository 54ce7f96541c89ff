"""The end-to-end case study (paper Section 3) as library operations.

Stages: download the model from the hub (containerized git, Fig. 2) ->
store it in site S3 (containerized aws-cli, Fig. 3) -> stage to platform
storage -> deploy the inference server (Figs. 4-6) -> expose it
(Section 3.3) -> query it (Fig. 7) -> benchmark it (Fig. 8).

All methods are generators; drive them from a simulation process or with
``run()`` helpers on the kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..bench.client import BenchmarkClient
from ..bench.sharegpt import ShareGptSampler
from ..bench.sweep import ConcurrencySweep, SweepResult
from ..cluster.platform import HPCPlatform
from ..containers.runtime import RunOpts
from ..errors import ConfigurationError, SimulatedFailure
from ..models.catalog import model_card
from ..net.http import HttpClient
from ..storage.mounts import PfsMount
from .deployer import Deployer, Deployment
from .ingress import ExposedService, expose_service
from .package import AppPackage, vllm_package
from .site import ConvergedSite

#: ``--max-model-len`` every deployed replica serves with unless told
#: otherwise: the paper's setting for Scout (Figs. 4-6).
MAX_MODEL_LEN = 65536

if TYPE_CHECKING:  # pragma: no cover
    from ..hardware.node import Node


class CaseStudyWorkflow:
    """Orchestrates the Section 3 workflow on a converged site."""

    def __init__(self, site: ConvergedSite, package: AppPackage | None = None):
        self.site = site
        self.kernel = site.kernel
        self.deployer = Deployer(site)
        self.package = package or vllm_package()

    # -- helpers -----------------------------------------------------------------

    def _free_node(self, platform: HPCPlatform, gpus: int = 0) -> Node:
        for node in platform.nodes:
            if node.up and node.gpus_free >= gpus:
                return node
        raise ConfigurationError(f"no free node on {platform.name}")

    def _hpc_platform(self, name: str) -> HPCPlatform:
        platform = self.site.platform(name)
        assert isinstance(platform, HPCPlatform)
        return platform

    def _run_stage(self, platform: HPCPlatform, image: str, opts: RunOpts,
                   what: str):
        """Run one containerized stage on a free node of ``platform``;
        a nonzero exit raises ``SimulatedFailure``."""
        node = self._free_node(platform)
        container = yield from platform.podman.run(node, image, opts)
        code = yield container.exited
        if code != 0:
            raise SimulatedFailure(f"{what} failed (exit {code})",
                                   sim_time=self.kernel.now)

    def run(self, generator):
        """Drive a workflow generator to completion on the kernel."""
        def proc(env):
            result = yield from generator
            return result
        return self.kernel.run(until=self.kernel.spawn(proc(self.kernel)))

    # -- stage 1: download (Figure 2) ------------------------------------------------

    def download_model(self, model: str, platform_name: str = "hops"):
        """Containerized ``git clone`` of the model onto platform storage."""
        platform = self._hpc_platform(platform_name)
        mount = platform.models_mount()
        opts = RunOpts(
            name="model-download",
            env={"MODEL": model, "TOKEN": self.site.hf_token,
                 "GIT_DEST": "/git/models"},
            volumes={"./models": "/git/models",
                     "./cert.pem": "/etc/ssl/cert.pem"},
            mounts={"/git/models": mount},
            workdir="/git/models",
        )
        yield from self._run_stage(platform, "alpine/git:latest", opts,
                                   "model download")
        return mount.listdir()

    # -- stage 2: store in S3 (Figure 3) ------------------------------------------------

    def upload_model_to_s3(self, model: str, platform_name: str = "hops"):
        """Containerized ``aws s3 sync`` of the checkout into site S3."""
        platform = self._hpc_platform(platform_name)
        model_dir = PfsMount(platform.filesystem, f"/models/{model}")
        opts = RunOpts(
            name="model-upload",
            env=dict(self.site.s3_env),
            command=("s3", "sync", f"./models/{model}",
                     f"s3://huggingface.co/{model}", "--exclude", ".git*"),
            volumes={"./models": "/aws/models"},
            mounts={f"./models/{model}": model_dir},
            workdir="/aws",
        )
        yield from self._run_stage(platform, "amazon/aws-cli:latest", opts,
                                   "S3 upload")
        return self.site.s3.list_objects("huggingface.co", f"{model}/")

    # -- stage 3: stage to a platform -----------------------------------------------------

    def stage_model_from_s3(self, model: str, platform_name: str):
        """Pull the model from S3 onto an HPC platform's filesystem
        (Kubernetes platforms stage via the Helm chart's init container)."""
        platform = self._hpc_platform(platform_name)
        mount = platform.models_mount()
        opts = RunOpts(
            name="model-stage",
            env=dict(self.site.s3_env),
            command=("s3", "sync", f"s3://huggingface.co/{model}",
                     "./models"),
            mounts={"./models": mount},
        )
        yield from self._run_stage(platform, "amazon/aws-cli:latest", opts,
                                   "staging")
        return mount.listdir()

    def admin_seed_model(self, model: str, platform_name: str) -> None:
        """Test/bench fast path: place model files where the platform's
        deploys read them (its filesystem on HPC; S3, which the Helm
        chart stages from, on Kubernetes) without simulating the
        transfer pipeline."""
        platform = self.site.platform(platform_name)
        if not isinstance(platform, HPCPlatform):
            self.admin_seed_s3(model)
            return
        for rel, size in model_card(model).repo_files().items():
            platform.filesystem.write_meta(f"/models/{model}/{rel}", size)

    def admin_seed_s3(self, model: str) -> None:
        """Place the model in S3 directly (as if previously uploaded)."""
        card = model_card(model)
        bucket = self.site.s3.primary().bucket("huggingface.co", create=True)
        for rel, size in card.repo_files().items():
            bucket.put(f"{model}/{rel}", size, self.kernel.now)

    # -- stage 4: deploy (Figures 4-6) ------------------------------------------------------

    def deploy_model(self, platform_name: str, model: str,
                     tensor_parallel_size: int,
                     max_model_len: int | None = MAX_MODEL_LEN,
                     runtime_name: str | None = None,
                     node: Node | None = None,
                     extra_params: dict[str, Any] | None = None):
        """Unified deploy via the Section 4 tool."""
        params = {"model": model, "tensor_parallel_size": tensor_parallel_size,
                  "max_model_len": max_model_len, **(extra_params or {})}
        return (yield from self.deployer.deploy(
            self.package, platform_name, params, node, runtime_name))

    # -- stage 5: expose (Section 3.3) --------------------------------------------------------

    def expose(self, deployment: Deployment, mode: str = "auto",
               user: str = "user") -> ExposedService:
        return expose_service(self.site, deployment, mode=mode, user=user)

    # -- stage 6: query (Figure 7) ---------------------------------------------------------------

    def query(self, exposed: ExposedService, content: str,
              model: str, max_tokens: int = 128):
        """One curl-style chat completion from the user's workstation."""
        client = HttpClient(self.site.fabric, self.site.user_host)
        response = yield from client.post(
            exposed.host, exposed.port, "/v1/chat/completions",
            headers={"Content-Type": "application/json",
                     "Authorization": "Bearer secret-api-key"},
            json={"model": model,
                  "messages": [{"role": "user", "content": content}],
                  "max_tokens": max_tokens,
                  "temperature": 0.7})
        return response

    # -- stage 7: benchmark (Figure 8, Section 3.4) ---------------------------------------------------

    def benchmark_endpoint(self, endpoint: tuple[str, int], model: str,
                           levels=(1, 4, 16, 64, 256, 1024),
                           n_requests: int = 1000, label: str | None = None,
                           client_host: str = "hops-svc",
                           max_total_tokens: int = 4096,
                           seed_stream: str = "bench", on_point=None):
        """Concurrency sweep against a raw (host, port) endpoint."""
        client = BenchmarkClient(self.kernel, self.site.fabric, client_host,
                                 endpoint[0], endpoint[1], model)
        sampler = ShareGptSampler(self.kernel.rng.stream(seed_stream),
                                  max_total_tokens=max_total_tokens)
        sweep = ConcurrencySweep(self.kernel, client, sampler,
                                 n_requests=n_requests, levels=tuple(levels),
                                 on_point=on_point)
        result = yield from sweep.run(label or f"{endpoint[0]}:{model}")
        return result

    def benchmark(self, deployment: Deployment, model: str,
                  levels=(1, 4, 16, 64, 256, 1024), n_requests: int = 1000,
                  label: str | None = None, client_host: str | None = None,
                  max_total_tokens: int = 4096, seed_stream: str = "bench"):
        """Concurrency sweep against a deployment; returns SweepResult."""
        platform = self.site.platform(deployment.platform_name)
        if client_host is None:
            client_host = (platform.service_host
                           if isinstance(platform, HPCPlatform)
                           else platform.cluster.ingress.frontend_host)
        result = yield from self.benchmark_endpoint(
            deployment.endpoint, model, levels=levels, n_requests=n_requests,
            label=label or f"{deployment.platform_name}:{model}",
            client_host=client_host, max_total_tokens=max_total_tokens,
            seed_stream=seed_stream)
        return result

    # -- demo ----------------------------------------------------------------------------------------

    def run_quick_demo(self, model: str | None = None) -> dict:
        """Seed + deploy + one query on Hops; returns a summary dict."""
        model = model or \
            "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"
        self.admin_seed_model(model, "hops")

        def demo(env):
            deployment = yield from self.deploy_model(
                "hops", model, tensor_parallel_size=2)
            exposed = self.expose(deployment, mode="tunnel")
            response = yield from self.query(
                exposed, "How long to get from Earth to Mars?", model)
            return {"deployment": deployment, "exposed": exposed,
                    "response": response.json,
                    "status": response.status}

        return self.run(demo(self.kernel))
