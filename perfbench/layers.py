"""From-outside per-layer tracing of one simulation run.

The benchmark never edits ``src/`` and never switches on the in-program
profiler (``repro.obs.profile.profiler``), because the fleet's fast lane
disarms itself while that profiler is enabled.  Instead this module
replaces each layer's entry points with timing wrappers before the run
starts, so the simulation takes exactly the path it takes untraced.

Every wrapped call pushes a frame on one stack.  A frame's *self time*
is its duration minus the time its nested wrapped calls took, so the
layers' self times add up to the traced part of the run without double
counting.  Generator entry points (router picks, request workers, the
engine loop) are timed per resume: each ``send``/``throw`` into the
generator is one frame, and the call count is the number of generators
created.  Code reached from no wrapped entry point is charged to the
innermost enclosing frame, which is usually ``SimKernel.step``.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import time
from collections.abc import Callable
from typing import Any

#: layer -> (module, class, attributes).  Each attribute is wrapped on
#: the class and on every subclass that overrides it.
LAYERS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "simkernel": [("repro.simkernel.kernel", "SimKernel", ("step",))],
    "fleet": [("repro.fleet.fleet", "Fleet",
               ("submit", "_request_fast", "request"))],
    "traffic": [("repro.fleet.traffic", "ArrivalSchedule",
                 ("arrival_blocks",)),
                ("repro.fleet.traffic", "TenantMix", ("draw_block",))],
    # HTTP handlers (``LlmRouter._handle``) stay unwrapped: the HTTP layer
    # tells generator handlers from plain ones with ``inspect.isgenerator``.
    "router": [("repro.services.router", "LlmRouter", ("_pick",))],
    "engine": [("repro.vllm.engine", "LLMEngine", ("submit", "_loop")),
               ("repro.vllm.scheduler", "Scheduler",
                ("schedule", "plan_jump"))],
    "kvcache": [("repro.vllm.kvcache", "BlockManager",
                 ("allocate", "free", "append_token", "append_tokens"))],
    "slo": [("repro.fleet.slo", "SloTracker", ("observe", "snapshot"))],
    "metrics": [("repro.obs.metrics", "MetricsRegistry", ("sample_dict",))],
    "scrape": [("repro.obs.scrape", "MetricsScraper", ("scrape_once",))],
    "alerts": [("repro.obs.alerts", "AlertEvaluator", ("evaluate_at",))],
    "spans": [("repro.obs.spans", "SpanRecorder",
               ("emit", "emit_many", "start_trace", "start_span"))],
    "analysis": [("repro.obs.context", "Observability", ("summary",)),
                 ("repro.obs.critical_path", "CriticalPathAnalyzer",
                  ("report",)),
                 ("repro.simkernel.tracing", "Tracer", ("digest",)),
                 ("repro.obs.spans", "SpanRecorder", ("digest",)),
                 ("repro.obs.scrape", "MetricsScraper", ("digest",)),
                 ("repro.obs.alerts", "AlertEvaluator", ("digest",)),
                 ("repro.obs.incident", "IncidentLog", ("digest",))],
    "trace": [("repro.simkernel.tracing", "Tracer", ("emit",))],
    "net": [("repro.net.topology", "Fabric", ("latency",)),
            ("repro.net.flows", "FlowNetwork", ("start_flow",)),
            ("repro.vllm.server", "VllmOpenAIServer", ("_kv_transfer",))],
    "chaos": [("repro.chaos.orchestrator", "ChaosOrchestrator",
               ("_probe_once", "_inject_now")),
              ("repro.chaos.supervisor", "ReplicaSupervisor", ("_sweep",))],
}


class _TimedGen:
    """A generator stand-in that times every resume as one frame.

    Supports what ``yield from`` and the kernel's ``Process`` use:
    iteration, ``send``, ``throw`` and ``close``.  ``on_yield``, when
    set, sees the first value the generator produces.
    """

    def __init__(self, gen: Any, resume: Callable[..., Any]):
        self._gen = gen
        self._resume = resume
        self.on_yield: Callable[[Any], None] | None = None
        self.__name__ = gen.__name__
        self.__qualname__ = gen.__qualname__

    def __iter__(self) -> _TimedGen:
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        out = self._resume(self._gen.send, value)
        if self.on_yield is not None:
            hook, self.on_yield = self.on_yield, None
            hook(out)
        return out

    def throw(self, *exc: Any) -> Any:
        return self._resume(self._gen.throw, *exc)

    def close(self) -> None:
        self._gen.close()


class LayerTracer:
    """Call counts and self time per layer, plus a few layer counters."""

    def __init__(self) -> None:
        #: calls per wrapped site (``"Class.attr"``)
        self.calls: dict[str, int] = {}
        self.site_layer: dict[str, str] = {}
        self.self_s: dict[str, float] = {}
        #: named counts observed at the wrapped boundaries
        self.counts: dict[str, int] = {}
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        #: child-time accumulators; the bottom entry is untraced code
        self._stack: list[float] = [0.0]
        self._gc_started = 0.0
        self._installed: list[tuple[type, str, Any]] = []
        #: instances seen at the kvcache boundary (prefix-hit ratio)
        self.block_managers: dict[int, Any] = {}

    def bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- timing frames --------------------------------------------------------

    def _frame(self, layer: str) -> Callable[..., Any]:
        """A function running ``fn(*args)`` as one timed frame of ``layer``."""
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter
        self_s.setdefault(layer, 0.0)

        def run(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
        return run

    def _wrapper(self, layer: str, site: str, fn: Callable[..., Any],
                 observe: Callable[..., None] | None) -> Callable[..., Any]:
        frame = self._frame(layer)
        calls = self.calls
        calls[site] = 0
        self.site_layer[site] = layer
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args: Any, **kwargs: Any) -> _TimedGen:
                calls[site] += 1
                proxy = _TimedGen(fn(*args, **kwargs), frame)
                if observe is not None:
                    observe(args, kwargs, proxy)
                return proxy
            return gen_wrapper

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[site] += 1
            out = frame(fn, *args, **kwargs)
            if observe is not None:
                observe(args, kwargs, out)
            return out
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` and hook the GC."""
        for layer, sites in LAYERS.items():
            for module, cls_name, attrs in sites:
                cls = getattr(importlib.import_module(module), cls_name)
                for attr in attrs:
                    owners = _defining_classes(cls, attr)
                    if not owners:
                        # A renamed entry point would read as a layer
                        # doing no work; fail instead.
                        raise LookupError(f"layer {layer}: no class defines "
                                          f"{cls_name}.{attr}")
                    for owner in owners:
                        fn = owner.__dict__[attr]
                        site = f"{owner.__name__}.{attr}"
                        wrapped = self._wrapper(layer, site, fn,
                                                self._observer(site))
                        self._installed.append((owner, attr, fn))
                        setattr(owner, attr, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_started

    # -- boundary observers ---------------------------------------------------

    def _observer(self, site: str) -> Callable[..., None] | None:
        bump = self.bump
        if site == "Scheduler.plan_jump":
            def jumps(_args: tuple, _kw: dict, out: int) -> None:
                if out > 0:
                    bump("engine.jumps")
            return jumps
        if site == "LlmRouter._pick":
            return self._observe_pick
        if site == "BlockManager.allocate":
            managers = self.block_managers

            def seen(args: tuple, _kw: dict, _out: int) -> None:
                managers.setdefault(id(args[0]), args[0])
            return seen
        return None

    def _observe_pick(self, args: tuple, kwargs: dict,
                      proxy: _TimedGen) -> None:
        """Affinity hit: the first backend tried is the session's sticky
        backend from before the pick."""
        router = args[0]
        session = kwargs.get("session", args[1] if len(args) > 1 else None)
        if router.policy != "cache-affinity" or session is None:
            return
        sticky = router._affinity.get(session)
        self.bump("router.session_picks")

        def first(backend: Any) -> None:
            if sticky is not None and backend.key == sticky:
                self.bump("router.affinity_hits")
        proxy.on_yield = first

    # -- results --------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        """Calls into every wrapped site of ``layer``."""
        return sum(n for site, n in self.calls.items()
                   if self.site_layer[site] == layer)

    def prefix_cache(self) -> tuple[int, int]:
        """(hit blocks, looked-up blocks) over every block manager seen."""
        hits = sum(m.cache_hit_blocks for m in self.block_managers.values())
        misses = sum(m.cache_miss_blocks
                     for m in self.block_managers.values())
        return hits, hits + misses


def _defining_classes(cls: type, attr: str) -> list[type]:
    """``cls`` and its subclasses that define ``attr`` themselves."""
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        if attr in c.__dict__ and c not in out:
            out.append(c)
        todo.extend(c.__subclasses__())
    return out
