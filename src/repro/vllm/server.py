"""The ``vllm-openai`` container app: startup, weight loading, OpenAI API.

Startup sequence (each stage can fail the way the paper describes):

1. validate execution-environment expectations (Apptainer-defaults crash);
2. validate offline environment — without the ``HF_HUB_OFFLINE`` family of
   flags the server tries to reach huggingface.co, which on an air-gapped
   platform fails;
3. resolve the model card and check the deployment fits GPU memory
   (Scout's 10M default context forces ``--max-model-len``);
4. load weights from the model mount (parallel FS / PVC / local dir) —
   "startup ... can take 30 minutes or more for large models";
5. initialize the engine (CUDA graphs, warmup) and bind the API port.
"""

from __future__ import annotations

from ..errors import (APIError, CapacityError, ConfigurationError,
                      ContainerCrash, NetworkUnreachable, NotFoundError)
from ..containers.image import register_app
from ..containers.runtime import ContainerApp, ContainerContext
from ..models.catalog import model_card
from ..models.weights import validate_fit
from ..net.http import HttpResponse, HttpService
from .config import EngineArgs, is_offline_env, parse_serve_command
from .engine import LLMEngine
from .perf import PerfModel, PerfProfile
from .spec import CompletionCall, CompletionResult, KvHandoff, RequestSpec

#: Engine initialization after weights are resident (graph capture, warmup).
ENGINE_INIT_SECONDS = 90.0

#: safetensors deserialization + HBM upload rate per node, bytes/second.
#: Far below network line rate (host-memory staging, format parsing,
#: PCIe) — a large share of the paper's "30 minutes or more" startup for
#: big models.
WEIGHT_LOAD_RATE_PER_NODE = 250e6


@register_app("vllm-openai")
class VllmOpenAIServer(ContainerApp):
    """Simulated vLLM OpenAI-compatible server."""

    def __init__(self):
        self.engine: LLMEngine | None = None
        self.args: EngineArgs | None = None
        self.service: HttpService | None = None
        self.startup_finished_at: float | None = None
        self._ctx: ContainerContext | None = None

    @property
    def role(self) -> str:
        """Disaggregation role (``unified`` / ``prefill`` / ``decode``)."""
        return self.args.disagg_role if self.args is not None else "unified"

    # -- startup ------------------------------------------------------------------

    def startup(self, ctx: ContainerContext):
        ctx.check_expectations()
        self._ctx = ctx
        kernel = ctx.kernel
        try:
            self.args = parse_serve_command(ctx.opts.command)
        except ConfigurationError as exc:
            raise ContainerCrash(f"vllm: bad arguments: {exc}",
                                 sim_time=kernel.now) from exc
        args = self.args

        # Offline-mode contract (paper Figures 4/5): without the offline
        # flags the server phones home to the Hub at startup.
        if not is_offline_env(ctx.env):
            try:
                ctx.fabric.vertex_path(ctx.hostname, "huggingface.co")
                yield kernel.timeout(5.0)  # hub metadata round trip
            except (NetworkUnreachable, NotFoundError) as exc:
                raise ContainerCrash(
                    "vllm: failed to reach huggingface.co and offline mode "
                    "is not enabled (set HF_HUB_OFFLINE=1, "
                    "TRANSFORMERS_OFFLINE=1, HF_DATASETS_OFFLINE=1)",
                    sim_time=kernel.now) from exc

        # Model card + memory fit.
        model_name = args.public_model_name
        try:
            card = model_card(model_name)
        except NotFoundError as exc:
            raise ContainerCrash(str(exc), sim_time=kernel.now) from exc
        tp = args.tensor_parallel_size
        if len(ctx.gpu_indices) < tp:
            raise ContainerCrash(
                f"vllm: tensor_parallel_size={tp} but only "
                f"{len(ctx.gpu_indices)} GPUs visible", sim_time=kernel.now)
        gpu = ctx.node.spec.gpus[ctx.gpu_indices[0]]
        try:
            kv_capacity = validate_fit(
                card, gpu, tp, args.pipeline_parallel_size,
                max_model_len=args.max_model_len,
                gpu_memory_utilization=args.gpu_memory_utilization)
        except (CapacityError, ConfigurationError) as exc:
            raise ContainerCrash(f"vllm: {exc}", sim_time=kernel.now) from exc

        # Locate and stream the weights.
        yield from self._load_weights(ctx, card, args)

        # Engine init: graph capture + warmup.
        yield kernel.timeout(ENGINE_INIT_SECONDS)

        profile: PerfProfile = ctx.opts.extras.get(
            "perf_profile", PerfProfile())
        perf = PerfModel(card, gpu, tp, args.pipeline_parallel_size,
                         profile=profile)
        self.engine = LLMEngine(
            kernel, card, perf, args, kv_capacity,
            fault_plan=ctx.opts.extras.get("fault_plan"),
            name=f"{ctx.hostname}:{args.port}")
        self.service = HttpService(ctx.fabric, ctx.hostname, args.port,
                                   self._handle, name=f"vllm@{ctx.hostname}")
        self.startup_finished_at = kernel.now
        kernel.trace.emit("vllm.ready", node=ctx.hostname,
                          model=model_name, port=args.port)

    def _load_weights(self, ctx: ContainerContext, card, args: EngineArgs):
        """Stream model weights from whichever mount provides them."""
        model_ref = args.model
        if model_ref.startswith("/"):
            mount = ctx.mount(model_ref)
            prefix = ""
        else:
            base = ctx.opts.workdir or "/vllm-workspace/models"
            mount = ctx.mount(base)
            prefix = f"{model_ref}/"
        found = mount.total_bytes(prefix)
        if found < card.weight_bytes * 0.99:
            raise ContainerCrash(
                f"vllm: model files for {card.name!r} not found under "
                f"{model_ref!r} (found {found} bytes, expected "
                f"~{card.weight_bytes})", sim_time=ctx.kernel.now)
        yield from mount.read_all(ctx.hostname, prefix)
        # Deserialize + upload the node's full shard set to HBM.
        yield ctx.kernel.timeout(card.weight_bytes
                                 / WEIGHT_LOAD_RATE_PER_NODE)

    # -- serving -------------------------------------------------------------------

    def run(self, ctx: ContainerContext):
        assert self.engine is not None
        engine_proc = self.engine.start()
        yield ctx.kernel.any_of([ctx.stop_event, engine_proc])
        if engine_proc.triggered and not engine_proc.ok:
            raise engine_proc.value  # engine crash -> container exit 1
        return

    def shutdown(self, ctx: ContainerContext) -> None:
        if self.engine is not None:
            self.engine.stop()
        if self.service is not None:
            self.service.close()
            self.service = None

    # -- HTTP handlers -----------------------------------------------------------------

    def _handle(self, request):
        if request.path == "/health":
            # Real vLLM fails the health endpoint once the engine loop
            # dies — routers must be able to quarantine on it.
            if self.engine is None or self.engine.crashed is not None:
                return HttpResponse(503, json={"status": "unhealthy"})
            return HttpResponse(200, json={"status": "ok"})
        if request.path == "/metrics":
            if self.engine is None:
                return HttpResponse(200, json={})
            # Content negotiation: the JSON dict is the stable scripting
            # surface; ``Accept: text/plain`` serves this engine's slice
            # of the kernel registry in Prometheus exposition format —
            # the same format the router admin routes speak.
            accept = request.header("accept", "") or ""
            if accept.startswith("text/plain"):
                text = self.engine.kernel.obs.registry.exposition(
                    where={"engine": self.engine.name})
                return HttpResponse(200, json=text,
                                    headers={"content-type": "text/plain"})
            return HttpResponse(200, json=self.engine.metrics())
        if request.path == "/v1/models":
            return HttpResponse(200, json={"data": [
                {"id": self.args.public_model_name, "object": "model"}]})
        if request.path in ("/v1/chat/completions", "/v1/completions"):
            response = yield from self._completions(request)
            return response
        return HttpResponse(404, json={"error": f"no route {request.path}"})

    def _completions(self, request):
        result = yield from self.complete(CompletionCall.from_http(request))
        return result.to_response()

    def complete(self, call: CompletionCall):
        """Generator: serve one completion; returns a CompletionResult.

        The one serving implementation: routers call it in process, and
        the HTTP route above adapts JSON onto it.  A ``prefill`` engine
        runs the request to its first token and returns a
        :class:`KvHandoff`; a ``decode`` engine given a handoff first
        pays the KV transfer over the fabric, then continues from it.
        """
        assert self.engine is not None and self.args is not None
        model = self.args.public_model_name
        if call.model and call.model != model:
            return CompletionResult.failed(
                404, f"model {call.model!r} not served here")
        max_tokens = call.max_tokens
        # Conversation identity for prefix caching: ``cache_salt`` is
        # vLLM's own field; ``session`` is what the fleet's session
        # workload sends.  Either keys the engine's block reuse.
        session = call.session or call.cache_salt
        role = self.role
        handoff = call.handoff
        kv_transfer_s = 0.0
        generated = 0
        if role == "prefill":
            # Prefill leg: run to the first token only; the router
            # forwards the handoff below to a decode engine.
            max_tokens = 1
        elif role == "decode" and handoff is not None:
            generated = handoff.generated
            if generated >= max_tokens:
                return CompletionResult.failed(
                    400, f"handoff already carries {generated} tokens "
                         f"but max_tokens={max_tokens}; nothing left "
                         "to decode")
            # Pay for moving the prefilled KV blocks over the fabric
            # before the request can join this engine's batch; the
            # transfer shares bandwidth max-min fairly with everything
            # else on the links.
            error, kv_transfer_s = yield from self._kv_transfer(
                handoff, call.prompt_tokens + generated, call.trace_id,
                call.trace_parent)
            if error is not None:
                return CompletionResult.failed(502, error)
        try:
            spec = RequestSpec(
                prompt_tokens=call.prompt_tokens, max_new_tokens=max_tokens,
                session_key=str(session) if session else None,
                priority=call.priority, trace_id=call.trace_id,
                trace_parent=call.trace_parent,
                prefill_done=generated > 0, tokens_generated=generated)
            handle = self.engine.submit(spec)
        except ConfigurationError as exc:
            return CompletionResult.failed(400, str(exc))
        except APIError as exc:
            return CompletionResult.failed(exc.status, exc.message)
        try:
            finished = yield handle.done
        except APIError as exc:
            return CompletionResult.failed(exc.status, exc.message)
        except ContainerCrash as exc:
            return CompletionResult.failed(500, f"engine crashed: {exc}")
        stats = finished.stats()
        result = CompletionResult(
            request_id=finished.id, model=model,
            prompt_tokens=stats.prompt_tokens,
            output_tokens=stats.output_tokens, ttft=stats.ttft,
            latency=stats.latency, preemptions=stats.preemptions,
            cached_tokens=stats.cached_tokens,
            path="decode" if generated else role,
            kv_transfer_s=kv_transfer_s)
        if role == "prefill":
            # Everything a decode engine needs to continue the request.
            result.handoff = KvHandoff(
                source=self._ctx.hostname if self._ctx else "",
                prompt_tokens=stats.prompt_tokens,
                generated=stats.output_tokens or 1,
                kv_tokens=stats.prompt_tokens + stats.output_tokens)
        return result

    def _kv_transfer(self, handoff: KvHandoff, fallback_tokens: int,
                     trace_id: int, trace_parent: int):
        """Move handed-off KV blocks from the prefill host to this one.

        Costed through the fabric's max-min fair flow network; emits a
        ``kv_transfer`` span joined to the request's trace.  Returns
        ``(error, seconds)`` — the error message is set (and seconds
        zero) when the source is unreachable, so the router can fail
        the decode leg over.
        """
        assert self.engine is not None and self._ctx is not None
        kernel = self.engine.kernel
        src = handoff.source
        dst = self._ctx.hostname
        kv_tokens = handoff.kv_tokens or fallback_tokens
        nbytes = kv_tokens * self.engine.card.kv_bytes_per_token
        started = kernel.now
        if src and src != dst:
            try:
                yield from self._ctx.fabric.transfer(
                    src, dst, nbytes, name=f"kv:{src}->{dst}")
            except (NetworkUnreachable, NotFoundError) as exc:
                return f"kv transfer from {src} failed: {exc}", 0.0
        seconds = kernel.now - started
        spans = kernel.obs.spans
        if trace_id and spans.enabled:
            spans.emit("kv_transfer", trace_id, trace_parent or None,
                       started, kernel.now,
                       {"src": src, "dst": dst, "bytes": int(nbytes),
                        "kv_tokens": kv_tokens, "engine": self.engine.name})
        return None, seconds
