"""Engine arguments, the ``vllm serve`` flag schema, and the
offline-serving environment contract.

:class:`EngineArgs` declares every engine flag once.  The parser reads
each flag's type from its field annotation, and :data:`SERVE_FLAGS`
gives the deploy tool's renderer
(:func:`~repro.core.package.vllm_serve_flags`) each flag's spelling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, NamedTuple, get_args, get_type_hints

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
    """Parsed ``vllm serve`` configuration (subset the case study uses).

    Each field but ``model`` is a flag of its annotated type; a field
    the command heads do not name needs a :data:`SERVE_FLAGS` row.
    """

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
        if self.max_num_seqs < 1:
            raise ConfigurationError("max_num_seqs must be positive")
        if self.disagg_role not in ("unified", "prefill", "decode"):
            raise ConfigurationError(
                f"unknown disagg_role {self.disagg_role!r} "
                "(choices: unified, prefill, decode)")

    @property
    def public_model_name(self) -> str:
        return self.served_model_name or self.model

    @property
    def world_size(self) -> int:
        """GPUs the engine runs on: one per TP rank of every PP stage."""
        return self.tensor_parallel_size * self.pipeline_parallel_size


def _flag_type(hint: Any) -> type:
    """The value type a field's annotation names (``int | None`` -> int)."""
    kinds = [kind for kind in get_args(hint) if kind is not type(None)]
    return kinds[0] if kinds else hint


#: Every flag ``vllm serve`` accepts, by field, with the value type its
#: ``EngineArgs`` annotation names.  The model is positional, not a flag.
FLAG_TYPES: dict[str, type] = {
    name: _flag_type(hint)
    for name, hint in get_type_hints(EngineArgs).items() if name != "model"}


class ServeFlag(NamedTuple):
    """How the deploy tool renders one engine flag."""

    field: str
    spelling: str
    #: left out at this value, and whenever the value is unset or empty
    skip: Any = None
    #: the value assumed when the deploy parameters do not name the field
    absent: Any = None


#: Every ``EngineArgs`` field after the command heads, in rendered order.
#: The heads name ``model``, ``tensor_parallel_size``, ``host`` and
#: ``port`` themselves (Figures 4-6); a new field needs a row here.  The
#: paper's commands always pass ``--disable-log-requests``.
SERVE_FLAGS: tuple[ServeFlag, ...] = (
    ServeFlag("pipeline_parallel_size", "--pipeline_parallel_size", 1),
    ServeFlag("disable_log_requests", "--disable-log-requests", absent=True),
    ServeFlag("enable_prefix_caching", "--enable-prefix-caching"),
    ServeFlag("gpu_memory_utilization", "--gpu_memory_utilization"),
    ServeFlag("max_model_len", "--max-model-len"),
    ServeFlag("served_model_name", "--served-model-name"),
    ServeFlag("scheduler_policy", "--scheduler-policy", "fcfs"),
    ServeFlag("chunk_tokens", "--chunk-tokens"),
    ServeFlag("disagg_role", "--disagg-role", "unified"),
    ServeFlag("override_generation_config", "--override-generation-config"),
    ServeFlag("max_num_seqs", "--max-num-seqs"),
)


def _flag_value(key: str, kind: type, value: str) -> Any:
    if kind is bool:
        return value.lower() in ("1", "true", "yes")
    if kind is dict:
        try:
            return json.loads(value)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"bad JSON for --{key.replace('_', '-')}: {exc}") from exc
    return kind(value)


def parse_serve_command(command: tuple[str, ...]) -> EngineArgs:
    """Parse a ``vllm serve``-style argv into :class:`EngineArgs`.

    Accepts both ``--flag=value`` and ``--flag value`` forms, and both
    underscore and hyphen spellings (the paper's figures mix them:
    ``--tensor_parallel_size=4`` vs ``--tensor-parallel-size=4``).  A
    flag's type is its field's (:data:`FLAG_TYPES`); a bool flag may be
    given bare.
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
        flag, eq, value = token[2:].partition("=")
        key = flag.replace("-", "_")
        kind = FLAG_TYPES.get(key)
        i += 1
        if not eq:
            if kind is bool:
                value = "true"
            elif i >= len(args):
                raise ConfigurationError(f"flag {token!r} needs a value")
            else:
                value = args[i]
                i += 1
        if kind is None:
            raise ConfigurationError(f"unknown vllm serve flag --{flag}")
        kwargs[key] = _flag_value(key, kind, value)
    return EngineArgs(model=model, **kwargs)


def is_offline_env(env: dict[str, str]) -> bool:
    """True when every offline flag is set (paper's disconnected mode)."""
    return all(env.get(flag) == "1" for flag in OFFLINE_ENV_FLAGS)
