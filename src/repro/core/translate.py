"""Artifact generation: the paper-figure commands from deployment intent.

The deployer produces *runnable simulated deployments*; this module
produces the *equivalent human artifacts* — the Podman/Apptainer command
lines of Figures 4-5 and the Helm values of Figure 6 — so users can see
exactly what the tool did on their behalf.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from .package import AppPackage, ConfigProfile, HardwareVariant
    from .site import ConvergedSite


def helm_values_for(site: ConvergedSite, package: AppPackage,
                    variant: HardwareVariant, profile: ConfigProfile,
                    params: dict[str, Any]) -> dict[str, Any]:
    """Build the vLLM chart values (paper Figure 6) from intent."""
    model = params.get("model")
    if not model:
        raise ConfigurationError("k8s deployment needs a 'model' parameter")
    repository, _, tag = variant.image_ref.rpartition(":")
    gpus = int(params.get("tensor_parallel_size", 1))
    command = ["vllm", "serve", "/data/",
               "--host", "0.0.0.0", "--port",
               str(package.service_port),
               "--served-model-name", str(model),
               f"--tensor-parallel-size={gpus}"]
    if params.get("disable_log_requests", True):
        command.append("--disable-log-requests")
    max_len = params.get("max_model_len")
    if max_len is not None:
        command.append(f"--max-model-len={int(max_len)}")
    policy = params.get("scheduler_policy")
    if policy and policy != "fcfs":
        command.append(f"--scheduler-policy={policy}")
    chunk = params.get("chunk_tokens")
    if chunk is not None:
        command.append(f"--chunk-tokens={int(chunk)}")
    role = params.get("disagg_role")
    if role and role != "unified":
        command.append(f"--disagg-role={role}")
    env = [{"name": "HOME", "value": "/data"},
           {"name": "HF_HOME", "value": "/data"}]
    for key, value in profile.env.items():
        env.append({"name": key, "value": value})
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
    if not argv:
        return ""
    head, *rest = argv
    lines = [head]
    current = head
    for token in rest:
        if token.startswith("-") or current.startswith("-") is False:
            lines.append("    " + token)
            current = token
        else:
            lines[-1] += " " + token
    return " \\\n".join([lines[0]] + [l.strip() for l in lines[1:]])

