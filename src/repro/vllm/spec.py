"""The typed request surfaces of the engine and of the serving path.

:class:`RequestSpec` is what ``LLMEngine.submit`` takes: one frozen,
validated object instead of a signature that grew a parameter per
feature.  Specs validate at construction, so a bad request fails where
it is built (the HTTP handler, a test) rather than deep inside the
engine loop.

:class:`CompletionCall` and :class:`CompletionResult` are one OpenAI
completion request and its outcome as they travel fleet -> router ->
vLLM server in process.  JSON exists only at the HTTP edges:
:meth:`CompletionCall.from_http` parses a request body and
:meth:`CompletionResult.to_response` renders the reply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError
from ..net.http import HttpRequest, HttpResponse

__all__ = ["CompletionCall", "CompletionResult", "KvHandoff", "RequestSpec",
           "estimate_tokens"]

#: Paths that carry a completion (the rest only pass through a router).
COMPLETION_PATHS = ("/v1/chat/completions", "/v1/completions")

#: Crude tokenizer: ~4 characters per token.
CHARS_PER_TOKEN = 4


def estimate_tokens(text: str) -> int:
    return max(1, len(text) // CHARS_PER_TOKEN)


@dataclass(frozen=True)
class RequestSpec:
    """Everything the engine needs to know about one generation request.

    ``session_key`` names the request's append-only token stream (one
    per conversation) for prefix caching; ``priority`` orders admission
    under the ``priority`` scheduler policy (higher runs first, 0 is
    the default class); ``trace_id``/``trace_parent`` join the request
    to an observability trace opened upstream.

    ``prefill_done`` marks a disaggregated *decode leg*: the prompt was
    prefilled on another engine and ``tokens_generated`` tokens (the
    handoff's first token) already exist, so admission charges no
    prefill compute and the request decodes from its arrival context.
    A preemption revokes this — the KV blocks are gone, so recompute
    prefills locally like any other request.
    """

    prompt_tokens: int
    max_new_tokens: int
    session_key: str | None = None
    priority: int = 0
    trace_id: int = 0
    trace_parent: int = 0
    prefill_done: bool = False
    tokens_generated: int = 0

    def __post_init__(self):
        if self.prompt_tokens < 1 or self.max_new_tokens < 1:
            raise ConfigurationError(
                "prompt_tokens and max_new_tokens must be positive, got "
                f"{self.prompt_tokens}+{self.max_new_tokens}")
        if self.tokens_generated and not self.prefill_done:
            raise ConfigurationError(
                "tokens_generated requires prefill_done=True (it describes "
                "a disaggregated handoff)")
        if self.prefill_done and self.tokens_generated < 1:
            raise ConfigurationError(
                "a prefill_done spec must carry at least the handoff's "
                "first token (tokens_generated >= 1)")
        if self.tokens_generated > self.max_new_tokens:
            raise ConfigurationError(
                f"tokens_generated={self.tokens_generated} exceeds "
                f"max_new_tokens={self.max_new_tokens}")


@dataclass(frozen=True, slots=True)
class KvHandoff:
    """A prefilled request's KV context, handed to a decode engine.

    ``source`` is the prefill engine's host (the transfer's origin);
    ``generated`` counts the tokens the prefill leg already produced.
    """

    source: str
    prompt_tokens: int
    generated: int
    kv_tokens: int

    def to_json(self) -> dict:
        return {"source": self.source, "prompt_tokens": self.prompt_tokens,
                "generated": self.generated, "kv_tokens": self.kv_tokens}

    @classmethod
    def from_json(cls, data: dict) -> KvHandoff:
        return cls(source=str(data.get("source") or ""),
                   prompt_tokens=int(data.get("prompt_tokens") or 0),
                   generated=int(data.get("generated") or 1),
                   kv_tokens=int(data.get("kv_tokens") or 0))


@dataclass(slots=True)
class CompletionCall:
    """One OpenAI completion request, typed.

    ``session`` is the conversation key the router keeps affinity on;
    the engine keys its prefix cache on ``session`` or, failing that,
    vLLM's own ``cache_salt``.  ``trace_id``/``trace_parent`` join the
    router's and engine's spans to the caller's trace.  ``http`` is the
    request the call was parsed from (None for in-process callers): a
    router leg to a backend that only speaks HTTP forwards it verbatim.
    """

    prompt_tokens: int
    max_tokens: int = 1024
    model: str | None = None
    session: str | None = None
    cache_salt: str | None = None
    priority: int = 0
    trace_id: int = 0
    trace_parent: int = 0
    handoff: KvHandoff | None = None
    http: HttpRequest | None = None

    @property
    def is_completion(self) -> bool:
        return self.http is None or self.http.path in COMPLETION_PATHS

    @classmethod
    def from_http(cls, request: HttpRequest) -> CompletionCall:
        body = request.json if isinstance(request.json, dict) else {}
        prompt_tokens = body.get("repro_prompt_tokens")
        if prompt_tokens is None:
            if "messages" in body:
                text = " ".join(str(m.get("content", ""))
                                for m in body["messages"])
            else:
                text = str(body.get("prompt", ""))
            prompt_tokens = estimate_tokens(text)
        handoff = body.get("repro_handoff")
        return cls(
            prompt_tokens=int(prompt_tokens),
            max_tokens=int(body.get("max_tokens", 1024)),
            model=body.get("model"), session=body.get("repro_session"),
            cache_salt=body.get("cache_salt"),
            priority=int(body.get("repro_priority") or 0),
            trace_id=int(body.get("repro_trace") or 0),
            trace_parent=int(body.get("repro_parent") or 0),
            handoff=(KvHandoff.from_json(handoff)
                     if isinstance(handoff, dict) else None),
            http=request)

    def to_http(self) -> HttpRequest:
        """The request to send a backend that only speaks HTTP."""
        if self.http is not None:
            if self.handoff is None:
                return self.http
            body = dict(self.http.json or {})
            body["repro_handoff"] = self.handoff.to_json()
            return HttpRequest(self.http.method, self.http.path,
                               self.http.headers, json=body)
        body = {"model": self.model,
                "messages": [{"role": "user", "content": "<sampled>"}],
                "repro_prompt_tokens": self.prompt_tokens,
                "max_tokens": self.max_tokens}
        for key, value in (("repro_session", self.session),
                           ("cache_salt", self.cache_salt),
                           ("repro_priority", self.priority),
                           ("repro_trace", self.trace_id),
                           ("repro_parent", self.trace_parent)):
            if value:
                body[key] = value
        if self.handoff is not None:
            body["repro_handoff"] = self.handoff.to_json()
        return HttpRequest("POST", COMPLETION_PATHS[0], json=body)


@dataclass(slots=True)
class CompletionResult:
    """The outcome of one :class:`CompletionCall`.

    A failed call carries ``status`` >= 400 and its error body in
    ``error`` (``{"error": message}`` from this stack; a foreign
    backend's body verbatim).  ``response`` holds the reply a backend
    sent over HTTP, which a router passes on unchanged.
    """

    status: int = 200
    error: Any = None
    request_id: int = 0
    model: str = ""
    prompt_tokens: int = 0
    output_tokens: int = 0
    ttft: float = 0.0
    latency: float = 0.0
    preemptions: int = 0
    cached_tokens: int = 0
    path: str = "unified"
    kv_transfer_s: float = 0.0
    handoff: KvHandoff | None = None
    response: HttpResponse | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @classmethod
    def failed(cls, status: int, message: str) -> CompletionResult:
        return cls(status, error={"error": message})

    @classmethod
    def from_response(cls, response: HttpResponse) -> CompletionResult:
        if not response.ok:
            return cls(response.status, error=response.json,
                       response=response)
        body = response.json if isinstance(response.json, dict) else {}
        stats = body.get("repro_stats")
        stats = stats if isinstance(stats, dict) else {}
        usage = body.get("usage")
        usage = usage if isinstance(usage, dict) else {}
        handoff = body.get("repro_handoff")
        return cls(
            response.status,
            prompt_tokens=int(usage.get("prompt_tokens", 0)),
            output_tokens=int(usage.get("completion_tokens", 0)),
            ttft=float(stats.get("ttft", 0.0)),
            latency=float(stats.get("latency", 0.0)),
            preemptions=int(stats.get("preemptions", 0)),
            cached_tokens=int(stats.get("cached_tokens", 0)),
            path=str(stats.get("path") or "unified"),
            kv_transfer_s=float(stats.get("kv_transfer_s", 0.0)),
            handoff=(KvHandoff.from_json(handoff)
                     if isinstance(handoff, dict) else None),
            response=response)

    def to_response(self) -> HttpResponse:
        """The OpenAI JSON reply (a passed-through reply as it came)."""
        if self.response is not None:
            return self.response
        if not self.ok:
            return HttpResponse(self.status, json=self.error)
        payload = {
            "id": f"chatcmpl-{self.request_id}",
            "object": "chat.completion",
            "model": self.model,
            "choices": [{"index": 0,
                         "message": {"role": "assistant",
                                     "content": "<generated>"},
                         "finish_reason": "length"}],
            "usage": {"prompt_tokens": self.prompt_tokens,
                      "completion_tokens": self.output_tokens,
                      "total_tokens": self.prompt_tokens
                      + self.output_tokens},
            "repro_stats": {"ttft": self.ttft, "latency": self.latency,
                            "preemptions": self.preemptions,
                            "cached_tokens": self.cached_tokens,
                            "path": self.path,
                            "kv_transfer_s": self.kv_transfer_s},
        }
        if self.handoff is not None:
            payload["repro_handoff"] = self.handoff.to_json()
        return HttpResponse(self.status, json=payload)
