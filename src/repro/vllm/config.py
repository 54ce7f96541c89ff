"""Engine arguments and the offline-serving environment contract."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .scheduler import SCHEDULER_POLICIES

#: Environment variables the paper sets for disconnected serving (Fig. 4/5).
OFFLINE_ENV_FLAGS = (
    "HF_HUB_OFFLINE",
    "TRANSFORMERS_OFFLINE",
    "HF_DATASETS_OFFLINE",
)

#: Telemetry opt-outs the paper also sets; tracked for artifact fidelity.
TELEMETRY_ENV_FLAGS = (
    "HF_HUB_DISABLE_TELEMETRY",
    "VLLM_NO_USAGE_STATS",
    "DO_NOT_TRACK",
)


@dataclass
class EngineArgs:
    """Parsed ``vllm serve`` configuration (subset the case study uses)."""

    model: str
    tensor_parallel_size: int = 1
    pipeline_parallel_size: int = 1
    max_model_len: int | None = None
    gpu_memory_utilization: float = 0.90
    max_num_seqs: int = 1024
    enable_prefix_caching: bool = False
    served_model_name: str | None = None
    host: str = "0.0.0.0"
    port: int = 8000
    disable_log_requests: bool = False
    override_generation_config: dict = field(default_factory=dict)
    #: engine scheduler policy: ``fcfs`` (default), ``priority``, or
    #: ``chunked`` (chunked prefill; budget below).
    scheduler_policy: str = "fcfs"
    chunk_tokens: int = 512
    #: disaggregated-serving role: ``unified`` serves whole requests;
    #: ``prefill`` runs to the first token and hands the KV off;
    #: ``decode`` continues handed-off requests.
    disagg_role: str = "unified"

    def __post_init__(self):
        if self.tensor_parallel_size < 1 or self.pipeline_parallel_size < 1:
            raise ConfigurationError("parallel sizes must be >= 1")
        if not (0.1 <= self.gpu_memory_utilization <= 1.0):
            raise ConfigurationError(
                f"gpu_memory_utilization {self.gpu_memory_utilization} "
                "out of range")
        if self.max_model_len is not None and self.max_model_len < 16:
            raise ConfigurationError("max_model_len too small")
        if self.scheduler_policy not in SCHEDULER_POLICIES:
            raise ConfigurationError(
                f"unknown scheduler_policy {self.scheduler_policy!r} "
                f"(choices: {', '.join(SCHEDULER_POLICIES)})")
        if self.chunk_tokens < 1:
            raise ConfigurationError("chunk_tokens must be positive")
        if self.disagg_role not in ("unified", "prefill", "decode"):
            raise ConfigurationError(
                f"unknown disagg_role {self.disagg_role!r} "
                "(choices: unified, prefill, decode)")

    @property
    def public_model_name(self) -> str:
        return self.served_model_name or self.model


def parse_serve_command(command: tuple[str, ...]) -> EngineArgs:
    """Parse a ``vllm serve``-style argv into :class:`EngineArgs`.

    Accepts both ``--flag=value`` and ``--flag value`` forms, and both
    underscore and hyphen spellings (the paper's figures mix them:
    ``--tensor_parallel_size=4`` vs ``--tensor-parallel-size=4``).
    """
    args = list(command)
    if args and args[0] == "vllm":
        args.pop(0)  # chart commands include the binary name
    if args and args[0] == "serve":
        args.pop(0)
    if not args or args[0].startswith("--"):
        raise ConfigurationError(
            f"vllm serve needs a model argument, got {command!r}")
    model = args.pop(0)
    kwargs: dict = {}
    i = 0
    while i < len(args):
        token = args[i]
        if not token.startswith("--"):
            raise ConfigurationError(f"unexpected argument {token!r}")
        if "=" in token:
            flag, value = token[2:].split("=", 1)
            i += 1
        else:
            flag = token[2:]
            if flag in ("disable-log-requests", "disable_log_requests",
                        "enable-prefix-caching", "enable_prefix_caching"):
                value = "true"
                i += 1
            else:
                if i + 1 >= len(args):
                    raise ConfigurationError(f"flag {token!r} needs a value")
                value = args[i + 1]
                i += 2
        key = flag.replace("-", "_")
        if key == "tensor_parallel_size":
            kwargs[key] = int(value)
        elif key == "pipeline_parallel_size":
            kwargs[key] = int(value)
        elif key == "max_model_len":
            kwargs[key] = int(value)
        elif key == "max_num_seqs":
            kwargs[key] = int(value)
        elif key == "gpu_memory_utilization":
            kwargs[key] = float(value)
        elif key == "served_model_name":
            kwargs[key] = value
        elif key == "host":
            kwargs[key] = value
        elif key == "port":
            kwargs[key] = int(value)
        elif key == "disable_log_requests":
            kwargs[key] = value.lower() in ("1", "true", "yes")
        elif key == "enable_prefix_caching":
            kwargs[key] = value.lower() in ("1", "true", "yes")
        elif key == "scheduler_policy":
            kwargs[key] = value
        elif key == "chunk_tokens":
            kwargs[key] = int(value)
        elif key == "disagg_role":
            kwargs[key] = value
        elif key == "override_generation_config":
            try:
                kwargs[key] = json.loads(value)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"bad JSON for --override-generation-config: {exc}"
                ) from exc
        else:
            raise ConfigurationError(f"unknown vllm serve flag --{flag}")
    return EngineArgs(model=model, **kwargs)


def is_offline_env(env: dict[str, str]) -> bool:
    """True when every offline flag is set (paper's disconnected mode)."""
    return all(env.get(flag) == "1" for flag in OFFLINE_ENV_FLAGS)
