"""vLLM-like inference engine and OpenAI-compatible server.

The engine is a genuine continuous-batching simulator: a paged KV-cache
block manager, a request scheduler with preemption, and an iteration loop
whose step times come from a calibrated roofline cost model
(:mod:`~repro.vllm.perf`).  Throughput-vs-concurrency curves *emerge* from
these mechanics; only endpoint scales are calibrated (see DESIGN.md §3).

The server app (:mod:`~repro.vllm.server`) registers as the ``vllm-openai``
container behavior: it parses ``vllm serve`` arguments (paper Figures 4-6),
validates the offline-mode environment, loads weights from its mount, and
exposes ``/v1/chat/completions``.
"""

from .config import EngineArgs, OFFLINE_ENV_FLAGS, parse_serve_command
from .engine import LLMEngine, Request
from .kvcache import BlockManager
from .perf import PerfModel, PerfProfile
from .scheduler import (SCHEDULER_POLICIES, SCHEDULERS, ChunkedScheduler,
                        PriorityScheduler, Scheduler)
from .spec import RequestSpec
from .faults import CrashAfterRequests, CrashAtTime, FaultPlan
from .multinode import MultiNodeEngineLauncher
from . import server  # noqa: F401  (registers the vllm-openai app)

__all__ = [
    "BlockManager",
    "CrashAfterRequests",
    "CrashAtTime",
    "EngineArgs",
    "FaultPlan",
    "LLMEngine",
    "MultiNodeEngineLauncher",
    "OFFLINE_ENV_FLAGS",
    "PerfModel",
    "PerfProfile",
    "Request",
    "RequestSpec",
    "SCHEDULER_POLICIES",
    "SCHEDULERS",
    "Scheduler",
    "PriorityScheduler",
    "ChunkedScheduler",
    "parse_serve_command",
]
