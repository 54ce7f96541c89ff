"""A Chainlit-like chat web UI service.

Thin front end that forwards chat turns to an OpenAI-compatible backend
(vLLM directly, or the router) and keeps per-session history — the
"chatbot-style virtual subject matter expert" shape from the paper's
introduction, optionally RAG-augmented via the vector DB.
"""

from __future__ import annotations

from ..containers.image import (ExecutionExpectations, ImageManifest,
                                make_layers, register_app)
from ..containers.runtime import ContainerApp, ContainerContext
from ..errors import APIError, NetworkUnreachable, ReproError
from ..net.http import HttpClient, HttpResponse, HttpService
from ..units import MiB


def webui_image(tag: str = "1.0") -> ImageManifest:
    return ImageManifest(
        repository="chainlit/chainlit", tag=tag,
        layers=make_layers(f"chainlit:{tag}", 350 * MiB, count=3),
        app="chat-webui",
        expectations=ExecutionExpectations(host_network=True),
        entrypoint="chainlit")


@register_app("chat-webui")
class ChatWebUi(ContainerApp):
    """HTTP API: POST /chat {"session": id, "message": text}.

    Env: ``UI_PORT`` (default 8080), ``OPENAI_BASE`` = ``host:port``,
    ``MODEL`` = served model name, optional ``VECTORDB`` = ``host:port``
    and ``RAG_COLLECTION`` to prepend retrieved context.
    """

    def __init__(self):
        self.sessions: dict[str, list[dict]] = {}
        self.service: HttpService | None = None
        self._client: HttpClient | None = None
        self._env: dict[str, str] = {}

    def startup(self, ctx: ContainerContext):
        ctx.check_expectations()
        self._env = dict(ctx.env)
        if "OPENAI_BASE" not in self._env:
            from ..errors import ContainerCrash
            raise ContainerCrash("webui: OPENAI_BASE not configured",
                                 sim_time=ctx.kernel.now)
        self._client = HttpClient(ctx.fabric, ctx.hostname)
        port = int(self._env.get("UI_PORT", "8080"))
        self.service = HttpService(ctx.fabric, ctx.hostname, port,
                                   self._handle, name="chainlit")
        yield 2.0

    def run(self, ctx: ContainerContext):
        yield ctx.stop_event

    def shutdown(self, ctx: ContainerContext) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    # -- handlers ---------------------------------------------------------------------

    def _handle(self, request):
        if request.path == "/health":
            return HttpResponse(200, json={"status": "ok"})
        if request.path != "/chat":
            return HttpResponse(404, json={"error": f"no route {request.path}"})
        body = request.json or {}
        session_id = str(body.get("session", "default"))
        message = str(body.get("message", ""))
        if not message:
            return HttpResponse(400, json={"error": "empty message"})
        history = self.sessions.setdefault(session_id, [])
        history.append({"role": "user", "content": message})

        context_docs = []
        if "VECTORDB" in self._env:
            context_docs = yield from self._retrieve(message)

        base_host, _, base_port = self._env["OPENAI_BASE"].partition(":")
        messages = list(history)
        if context_docs:
            messages.insert(0, {
                "role": "system",
                "content": "Context: " + " ".join(
                    d.get("text", "") for d in context_docs)})
        try:
            response = yield from self._client.post(
                base_host, int(base_port or 8000), "/v1/chat/completions",
                json={"model": self._env.get("MODEL"),
                      "messages": messages,
                      "max_tokens": int(self._env.get("MAX_TOKENS", "256"))})
        except (APIError, NetworkUnreachable, ReproError) as exc:
            return HttpResponse(502, json={"error": str(exc)})
        if not response.ok:
            return HttpResponse(response.status, json=response.json)
        reply = response.json["choices"][0]["message"]
        history.append(reply)
        return HttpResponse(200, json={
            "reply": reply["content"],
            "usage": response.json["usage"],
            "retrieved": len(context_docs),
            "turns": len(history) // 2,
        })

    def _retrieve(self, message: str):
        host, _, port = self._env["VECTORDB"].partition(":")
        collection = self._env.get("RAG_COLLECTION", "docs")
        dim = int(self._env.get("RAG_DIM", "8"))
        # Toy embedding: character histogram folded into `dim` buckets.
        vec = [0.0] * dim
        for ch in message.encode():
            vec[ch % dim] += 1.0
        try:
            response = yield from self._client.post(
                host, int(port or 19530), "/search",
                json={"collection": collection, "query": vec, "k": 3})
        except (APIError, NetworkUnreachable, ReproError):
            return []
        if not response.ok:
            return []
        return response.json.get("hits", [])
