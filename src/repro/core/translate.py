"""Artifact generation: the Helm values of Figure 6 from deployment intent.

The deployer produces *runnable simulated deployments*; this module
produces the chart values a Kubernetes deploy installs, and renders
argv lists as the paper's multi-line commands, so users can see exactly
what the tool did on their behalf.  The Podman/Apptainer command lines
of Figures 4-5 come from the package's command builder.

The chart command is only Figure 6's head (``vllm serve /data/`` with
host, port, served name and tensor parallelism); every engine flag after
it comes from :func:`~repro.core.package.vllm_serve_flags`, the renderer
the Podman/Apptainer argv uses too, so a Helm replica serves with the
same engine settings as a container on an HPC node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError
from ..vllm.config import parse_serve_command
from .package import (AppPackage, ConfigProfile, HardwareVariant,
                      vllm_serve_flags)

if TYPE_CHECKING:  # pragma: no cover
    from .site import ConvergedSite


def helm_values_for(site: ConvergedSite, package: AppPackage,
                    variant: HardwareVariant, profile: ConfigProfile,
                    params: dict[str, Any]) -> dict[str, Any]:
    """Build the vLLM chart values (paper Figure 6) from intent."""
    model = params.get("model")
    if not model:
        raise ConfigurationError("k8s deployment needs a 'model' parameter")
    repository, _, tag = variant.image_ref.rpartition(":")
    tp = int(params.get("tensor_parallel_size", 1))
    served = params.get("served_model_name") or model
    command = ["vllm", "serve", "/data/",
               "--host", "0.0.0.0", "--port",
               str(package.service_port),
               "--served-model-name", str(served),
               f"--tensor-parallel-size={tp}",
               *vllm_serve_flags({key: value for key, value in params.items()
                                  if key != "served_model_name"})]
    # Every TP rank of every pipeline stage holds a GPU.
    gpus = parse_serve_command(tuple(command)).world_size
    env = [{"name": key, "value": value} for key, value in
           {"HOME": "/data", "HF_HOME": "/data", **profile.env}.items()]
    storage = int(params.get("storage_bytes", 300 * 1024**3))
    values: dict[str, Any] = {
        "image": {"repository": repository, "tag": tag, "command": command},
        "env": env,
        "resources": {"gpus": gpus},
        "storage": {"size": storage},
        "replicas": int(params.get("replicas", 1)),
        "service": {"port": package.service_port},
        "ingress": {"enabled": True,
                    "host": params.get(
                        "ingress_host",
                        f"{params.get('name', package.name)}.apps.example")},
        "modelDownload": {
            "enabled": True,
            "bucket": params.get("model_bucket", "huggingface.co"),
            "prefix": f"{model}/",
            **site.s3_env,
        },
    }
    return values


def command_text(argv: list[str]) -> str:
    """Render an argv list as a readable multi-line command (paper style)."""
    lines: list[str] = []
    for token in argv:
        if lines and lines[-1].startswith("-") and not token.startswith("-"):
            lines[-1] += " " + token      # a flag's value joins its line
        else:
            lines.append(token)
    return " \\\n".join(lines)

