"""AppPackage: the container-deployment package manager's unit (Section 4).

The paper identifies four gaps and proposes metadata-driven tooling:

1. *Container runtime user interface differences* — covered by the image's
   :class:`~repro.containers.image.ExecutionExpectations`, which the
   deployer translates into per-runtime flags.
2. *Computing platform differences* — covered by
   :class:`HardwareVariant`: one logical package, per-vendor images
   (upstream vLLM ships CUDA; AMD ships ROCm builds).
3. *Application and service configuration* — covered by
   :class:`ConfigProfile`: named high-level modes (offline vs internet,
   single- vs multi-node) that expand to env/flags.
4. *Computing center differences* — covered by site profiles
   (:mod:`~repro.core.profiles`) feeding endpoints/registries in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Any

from ..errors import ConfigurationError, NotFoundError
from ..vllm.config import FLAG_TYPES, SERVE_FLAGS


@dataclass(frozen=True)
class HardwareVariant:
    """Which image to use on which accelerator ecosystem."""

    gpu_arch: str        # "cuda" | "rocm" | "oneapi"
    image_ref: str


@dataclass(frozen=True)
class ConfigProfile:
    """A named high-level configuration (e.g. offline serving)."""

    name: str
    env: dict[str, str] = field(default_factory=dict)
    description: str = ""


@dataclass
class AppPackage:
    """A deployable containerized application, platform-agnostic.

    ``command_builder(params) -> tuple[str, ...]`` renders the container
    command from deployment parameters (model, parallelism, ports...).
    """

    name: str
    description: str
    variants: dict[str, HardwareVariant]
    profiles: dict[str, ConfigProfile]
    default_profile: str
    service_port: int
    entrypoint: str = ""
    command_builder: Callable[[dict[str, Any]], tuple[str, ...]] | None = None

    def variant_for(self, gpu_arch: str) -> HardwareVariant:
        try:
            return self.variants[gpu_arch]
        except KeyError:
            raise NotFoundError(
                f"package {self.name!r} has no image for {gpu_arch!r} "
                f"hardware; variants: {sorted(self.variants)}") from None

    def profile(self, name: str | None = None) -> ConfigProfile:
        key = name or self.default_profile
        try:
            return self.profiles[key]
        except KeyError:
            raise NotFoundError(
                f"package {self.name!r} has no profile {key!r}; "
                f"profiles: {sorted(self.profiles)}") from None

    def command(self, params: dict[str, Any]) -> tuple[str, ...]:
        if self.command_builder is None:
            return ()
        return self.command_builder(params)


# -- the vLLM package (the case study's application) ----------------------------------

OFFLINE_SERVING_ENV = {
    "OMP_NUM_THREADS": "1",
    "HF_HUB_ENABLE_HF_TRANSFER": "0",
    "HF_HUB_DISABLE_TELEMETRY": "1",
    "VLLM_NO_USAGE_STATS": "1",
    "DO_NOT_TRACK": "1",
    "HF_DATASETS_OFFLINE": "1",
    "TRANSFORMERS_OFFLINE": "1",
    "HF_HUB_OFFLINE": "1",
    "VLLM_DISABLE_COMPILE_CACHE": "1",
}

ONLINE_SERVING_ENV = {
    "OMP_NUM_THREADS": "1",
    "HF_HUB_DISABLE_TELEMETRY": "1",
    "VLLM_NO_USAGE_STATS": "1",
}


def vllm_serve_flags(params: dict[str, Any]) -> list[str]:
    """Every ``vllm serve`` engine flag after the command head.

    The one flag renderer: the Podman/Apptainer argv and the Helm chart
    command both append it.  It walks :data:`~repro.vllm.config.SERVE_FLAGS`,
    so a flag appears only when its parameter is set, in a fixed order.
    """
    flags: list[str] = []
    for flag in SERVE_FLAGS:
        value = params.get(flag.field, flag.absent)
        if not value or value == flag.skip:
            continue
        kind = FLAG_TYPES[flag.field]
        if kind is bool:
            flags.append(flag.spelling)
        elif kind is dict:
            flags.append(f"{flag.spelling}={json.dumps(value)}")
        else:
            flags.append(f"{flag.spelling}={kind(value)}")
    return flags


def _vllm_command(params: dict[str, Any]) -> tuple[str, ...]:
    model = params.get("model")
    if not model:
        raise ConfigurationError("vllm deployment needs a 'model' parameter")
    tp = int(params.get("tensor_parallel_size", 1))
    return ("serve", str(model), f"--tensor_parallel_size={tp}",
            *vllm_serve_flags(params))


def vllm_package() -> AppPackage:
    """The vLLM inference server as an AppPackage (paper Figures 4-6)."""
    return AppPackage(
        name="vllm-openai",
        description="vLLM OpenAI-compatible LLM inference server",
        variants={
            "cuda": HardwareVariant("cuda", "vllm/vllm-openai:v0.9.1"),
            "rocm": HardwareVariant(
                "rocm", "rocm/vllm:rocm6.4.1_vllm_0.9.1_20250702"),
        },
        profiles={
            "offline-serving": ConfigProfile(
                "offline-serving", env=dict(OFFLINE_SERVING_ENV),
                description="air-gapped serving; all hub access disabled"),
            "online-serving": ConfigProfile(
                "online-serving", env=dict(ONLINE_SERVING_ENV),
                description="internet-enabled; may download models on "
                            "first use"),
        },
        default_profile="offline-serving",
        service_port=8000,
        entrypoint="vllm",
        command_builder=_vllm_command,
    )
