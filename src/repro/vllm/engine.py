"""The continuous-batching engine loop.

Mechanics mirror vLLM's scheduler at the fidelity that matters for the
paper's curves: admission from a waiting queue while KV blocks are
available, one token per running sequence per iteration, recompute-
preemption when the cache fills, and iteration times from the
calibrated :class:`~repro.vllm.perf.PerfModel`.  *Which* request is
admitted, preempted, or coalesced over is the decision of one
scheduler object, built from ``EngineArgs.scheduler_policy`` through
:data:`~repro.vllm.scheduler.SCHEDULERS`: the FCFS
:class:`~repro.vllm.scheduler.Scheduler` (default) or one of its
policy subclasses.

An engine also carries a *disaggregation role* (``EngineArgs.
disagg_role``): ``unified`` (default) serves whole requests; a
``prefill`` engine runs requests only to their first token so a
``decode`` engine can continue them from a KV handoff
(:class:`~repro.vllm.spec.RequestSpec` with ``prefill_done=True``).
The role changes nothing in this loop — handoff requests simply enter
admission with their prefill already paid for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import APIError, ContainerCrash
from ..models.catalog import ModelCard
from ..simkernel import Event, Interrupted, Sleep
from .config import EngineArgs
from .kvcache import BlockManager
from .perf import PerfModel
from .scheduler import SCHEDULERS
from .spec import RequestSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel
    from .faults import FaultPlan


class EngineCrash(ContainerCrash):
    """The engine died (e.g. the memory-leak crash of Fig. 12 run 1)."""


@dataclass
class RequestStats:
    """Final accounting for one completed request."""

    prompt_tokens: int
    output_tokens: int
    ttft: float          # time to first token
    latency: float       # submit -> finish
    preemptions: int
    cached_tokens: int = 0   # prompt tokens served from the prefix cache


class Request:
    """One generation request inside the engine."""

    _ids = itertools.count(1)

    def __init__(self, kernel: SimKernel, spec: RequestSpec):
        self.kernel = kernel
        self.id = next(Request._ids)
        self.spec = spec
        self.prompt_tokens = spec.prompt_tokens
        self.max_new_tokens = spec.max_new_tokens
        self.session_key = spec.session_key
        self.priority = spec.priority
        # Observability trace id (0 = untraced).  Distinct from ``id``:
        # ``_ids`` is process-global, so ``id`` values depend on how many
        # simulations shared this process and must never reach a digest.
        self.trace_id = spec.trace_id
        self.trace_parent = spec.trace_parent  # caller's span id in that trace
        self.cached_tokens = 0    # prefix-cache hit at latest admission
        self.submitted_at = kernel.now
        self.admitted_at: float | None = None
        self.first_token_at: float | None = None
        self.finished_at: float | None = None
        self.preemptions = 0
        self.active = False       # currently in the running batch
        self.prefill_remaining = 0  # chunked-prefill tokens still unpaid
        self._first_token: Event | None = None
        self.done: Event = kernel.event()
        if spec.prefill_done:
            # Disaggregated decode leg: the prompt (and the handoff's
            # first token) were computed on a prefill engine; this
            # engine starts from that context.  The first token counts
            # as produced on submit — it fired on the other engine.
            self.tokens_generated = spec.tokens_generated
            self.needs_prefill = False
            self.prefill_done = True
            self.first_token_at = kernel.now
        else:
            self.tokens_generated = 0
            self.needs_prefill = True
            self.prefill_done = False

    @property
    def first_token(self) -> Event:
        """An event that fires with ``first_token_at`` at the first token.

        Created on first access, so a request nobody watches costs no
        event.  Asked for after the first token, it is already
        triggered and fires at the current instant.
        """
        if self._first_token is None:
            self._first_token = self.kernel.event()
            if self.first_token_at is not None:
                self._first_token.succeed(self.first_token_at)
        return self._first_token

    def mark_first_token(self, now: float) -> None:
        """Record the first token (once) and fire a watcher, if any."""
        if self.first_token_at is None:
            self.first_token_at = now
            if self._first_token is not None:
                self._first_token.succeed(now)

    def stats(self) -> RequestStats:
        assert self.finished_at is not None and self.first_token_at is not None
        return RequestStats(
            prompt_tokens=self.prompt_tokens,
            output_tokens=self.tokens_generated,
            ttft=self.first_token_at - self.submitted_at,
            latency=self.finished_at - self.submitted_at,
            preemptions=self.preemptions,
            cached_tokens=self.cached_tokens,
        )

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.tokens_generated


class LLMEngine:
    """Continuous-batching engine bound to a KV budget and a cost model."""

    def __init__(self, kernel: SimKernel, card: ModelCard,
                 perf: PerfModel, args: EngineArgs,
                 kv_capacity_tokens: int,
                 fault_plan: FaultPlan | None = None,
                 name: str = "vllm"):
        self.kernel = kernel
        self.card = card
        self.perf = perf
        self.args = args
        self.name = name
        self.blocks = BlockManager(
            kv_capacity_tokens, prefix_caching=args.enable_prefix_caching)
        self.scheduler = SCHEDULERS[args.scheduler_policy](self)
        # The scheduler's waiting deque and running list themselves
        # (plain aliases: the hot loop reads them without a property
        # call).  The scheduler mutates both in place and never rebinds
        # either.
        self.waiting = self.scheduler.waiting
        self.running = self.scheduler.running
        self.fault_plan = fault_plan
        #: Run-long counters; finished requests are not kept.
        self.completed_count = 0
        self.total_output_tokens = 0
        self.total_requests = 0
        self.iterations = 0
        self.crashed: EngineCrash | None = None
        self._kv_tokens = 0       # running total of in-batch context tokens
        self._wake: Event | None = None       # idle engine, waiting for load
        self._jump_sleep: Sleep | None = None  # coalesced decode in progress
        self._proc = None
        self._register_obs()

    def _register_obs(self) -> None:
        """Register this engine's slice of the kernel's metrics registry.

        Gauges are callback-backed (read at collection, never written in
        the loop); the latency/TTFT histograms are the only per-request
        observes and they fire once per *finish*, not per iteration.
        """
        self._obs = self.kernel.obs
        reg = self._obs.registry
        eng = {"engine": self.name}
        labels = ("engine",)
        reg.gauge("engine_requests_running",
                  "Sequences in the running batch", labels=labels) \
            .labels(**eng).set_function(lambda: len(self.running))
        reg.gauge("engine_requests_waiting",
                  "Requests queued for admission", labels=labels) \
            .labels(**eng).set_function(lambda: len(self.waiting))
        reg.gauge("engine_kv_cache_usage",
                  "Fraction of KV blocks in use", labels=labels) \
            .labels(**eng).set_function(
                lambda: self.blocks.used_blocks / self.blocks.total_blocks)
        reg.gauge("engine_iterations_total",
                  "Engine scheduler iterations", labels=labels) \
            .labels(**eng).set_function(lambda: self.iterations)
        reg.gauge("engine_requests_completed_total",
                  "Requests finished", labels=labels) \
            .labels(**eng).set_function(lambda: self.completed_count)
        reg.gauge("engine_generation_tokens_total",
                  "Output tokens generated", labels=labels) \
            .labels(**eng).set_function(lambda: self.total_output_tokens)
        self._h_latency = reg.histogram(
            "engine_request_latency_seconds",
            "Submit-to-finish latency", labels=labels).labels(**eng)
        self._h_ttft = reg.histogram(
            "engine_ttft_seconds",
            "Time to first token", labels=labels).labels(**eng)

    # -- public API -------------------------------------------------------------------

    @property
    def max_model_len(self) -> int:
        return self.args.max_model_len or self.card.max_context

    def submit(self, spec: RequestSpec) -> Request:
        """Enqueue a request; returns it (wait on ``request.done``)."""
        if self.crashed is not None:
            raise APIError(503, f"engine {self.name} has crashed")
        if spec.prompt_tokens + spec.max_new_tokens > self.max_model_len:
            raise APIError(
                400, f"requested {spec.prompt_tokens}+{spec.max_new_tokens} "
                     f"tokens exceeds max_model_len={self.max_model_len}")
        request = Request(self.kernel, spec)
        self.scheduler.enqueue(request)
        self.total_requests += 1
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
        self.nudge()
        return request

    def nudge(self) -> None:
        """Interrupt a coalesced decode sleep at the current instant.

        New arrivals (and live fault attachment) must be noticed at the
        next iteration *boundary*, exactly as in per-iteration stepping;
        a no-op unless a fast-forward sleep is in flight.  The sleep is
        one :class:`~repro.simkernel.Sleep` timer: ``wake()`` queues it
        at ``now`` and its deadline entry becomes a no-op, so a nudge
        costs one heap entry and the loop resumes straight from it.
        """
        if self._jump_sleep is not None:
            self._jump_sleep.wake()

    def start(self):
        """Spawn the engine loop; returns the process."""
        self._proc = self.kernel.spawn(self._loop(), name=f"engine:{self.name}")
        return self._proc

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("engine stop")

    @property
    def kv_tokens_in_use(self) -> int:
        """Context tokens held by the running batch (O(1) counter)."""
        return self._kv_tokens

    # -- engine loop -------------------------------------------------------------------

    def _loop(self):
        kernel = self.kernel
        try:
            while True:
                if not self.running and not self.waiting:
                    self._wake = kernel.event()
                    yield self._wake
                    self._wake = None
                self._check_faults()
                prefill_tokens = self.scheduler.schedule()
                if not self.running:
                    continue
                const, kv_coeff = self.perf.decode_coeffs(len(self.running))
                step = const + kv_coeff * self._kv_tokens
                if prefill_tokens:
                    step += self.perf.prefill_time(prefill_tokens)
                yield kernel.timeout(step)
                self.iterations += 1
                self._advance_all()
                if self.fault_plan is None and self.running:
                    yield from self._fast_forward()
        except Interrupted:
            self._fail_outstanding(APIError(503, "engine stopped"))
        except EngineCrash as crash:
            self.crashed = crash
            self._fail_outstanding(crash)
            raise

    # -- coalesced decode (the hot-path fast-forward) ----------------------------------

    #: Below this many provably-eventless iterations, per-iteration
    #: stepping is cheaper than planning a jump.
    MIN_JUMP = 4

    def _fast_forward(self):
        """Run many decode iterations under a single kernel sleep.

        Between iteration boundaries the batch can only change at a
        finish, a preemption, an admission, a first token, or a fault
        check — ``Scheduler.plan_jump`` counts how many iterations are
        provably free of all five, and that whole stretch collapses into
        one :class:`~repro.simkernel.Sleep` whose duration is the
        closed-form sum of the per-iteration costs (affine in KV tokens,
        which grow by ``batch`` per iteration).  A new arrival wakes the
        sleep early via :meth:`nudge`; the elapsed whole iterations are
        applied in bulk, the iteration in flight completes at normal
        granularity, and the main loop admits at the boundary —
        bit-for-bit the same token counts, TTFTs, and finish times as
        per-iteration stepping (timing differs only by float-sum
        rounding).  Every scheduler policy takes this path; one whose
        decisions FCFS's plan does not cover adds a veto to it (see
        ``docs/serving.md``).  Disabled
        whenever a fault plan is armed: those contracts are
        per-iteration.
        """
        j = self.scheduler.plan_jump()
        if j < self.MIN_JUMP:
            return
        kernel = self.kernel
        batch = len(self.running)
        const, kv_coeff = self.perf.decode_coeffs(batch)
        per_iter = const + kv_coeff * self._kv_tokens
        kv_growth = kv_coeff * batch

        def cum(m: int) -> float:
            """Time for the first ``m`` jump iterations."""
            return m * per_iter + kv_growth * (m * (m - 1) * 0.5)

        sleep = self._jump_sleep = kernel.sleep(cum(j))
        started = kernel.now
        try:
            yield sleep
        finally:
            self._jump_sleep = None
        if not sleep.woke:
            self._apply_iterations(j)
            return
        # Nudged mid-sleep: bulk-apply the whole iterations already
        # elapsed, finish the one in flight at normal granularity, then
        # let the main loop admit at the boundary.
        elapsed = kernel.now - started
        m = self._completed_iterations(elapsed, cum, j)     # m < j
        self._apply_iterations(m)
        remainder = cum(m + 1) - elapsed
        if remainder > 0:
            yield kernel.timeout(remainder)
        self._apply_iterations(1)

    @staticmethod
    def _completed_iterations(progress: float, cum, j: int) -> int:
        """Largest ``m < j`` with ``cum(m) <= progress`` (binary search)."""
        lo, hi = 0, j - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if cum(mid) <= progress:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _apply_iterations(self, m: int) -> None:
        """Bulk-apply ``m`` whole iterations planned by the scheduler's
        jump plan (no finishes, prefills, or preemptions occur within
        them)."""
        if m <= 0:
            return
        blocks = self.blocks
        for request in self.running:
            blocks.append_tokens(request.id, m)
            request.tokens_generated += m
        grown = m * len(self.running)
        self.total_output_tokens += grown
        self._kv_tokens += grown
        self.iterations += m

    # -- per-iteration stepping --------------------------------------------------------

    def _check_faults(self) -> None:
        if self.fault_plan is not None:
            self.fault_plan.check(self)

    def _advance_all(self) -> None:
        now = self.kernel.now
        running = self.running
        finished: list[Request] = []
        if self.blocks.free_blocks >= len(running):
            # Fast path: every sequence can take a token even if each
            # one crosses a block edge — no preemption is possible, so
            # no batch copy and no per-request membership checks.
            advanced = 0
            for request in running:
                if request.prefill_remaining > 0:
                    continue   # chunked prefill still paying; no token yet
                self.blocks.append_token(request.id)
                request.tokens_generated += 1
                advanced += 1
                if request.needs_prefill:
                    request.needs_prefill = False
                    request.mark_first_token(now)
                if request.tokens_generated >= request.max_new_tokens:
                    finished.append(request)
        else:
            advanced = 0
            for request in list(running):
                if not request.active:
                    continue  # got preempted while advancing others
                if request.prefill_remaining > 0:
                    continue
                if not self._ensure_appendable(request, finished):
                    # Cache completely full with this sequence alone: cap it.
                    finished.append(request)
                    continue
                if not request.active:
                    continue
                self.blocks.append_token(request.id)
                request.tokens_generated += 1
                advanced += 1
                if request.needs_prefill:
                    request.needs_prefill = False
                    request.mark_first_token(now)
                if request.tokens_generated >= request.max_new_tokens:
                    finished.append(request)
        self.total_output_tokens += advanced
        self._kv_tokens += advanced
        for request in finished:
            self._finish(request, now)

    def _finish(self, request: Request, now: float) -> None:
        self.running.remove(request)
        request.active = False
        # A finished conversation turn donates its full-context blocks
        # to the prefix cache (zero-ref residents) so the next turn's
        # prompt — prior context + new user text — prefills only the
        # tail.
        self.blocks.free(request.id, register_key=request.session_key)
        self._kv_tokens -= request.total_tokens
        request.finished_at = now
        request.mark_first_token(now)
        self.completed_count += 1
        if self._obs.registry.enabled:
            self._h_latency.observe(now - request.submitted_at)
            self._h_ttft.observe(request.first_token_at
                                 - request.submitted_at)
        if request.trace_id and self._obs.spans.enabled:
            self._emit_request_spans(request, now)
        request.done.succeed(request)

    def _emit_request_spans(self, request: Request, now: float) -> None:
        """Derive queue/prefill/decode phase spans at finish.

        Bounds come from timestamps the engine records anyway, so
        tracing adds no per-iteration work: the whole span tree for a
        request is three records written once, at completion.
        """
        spans = self._obs.spans
        tid = request.trace_id
        parent = request.trace_parent or None
        admitted = (request.admitted_at if request.admitted_at is not None
                    else request.submitted_at)
        first = (request.first_token_at if request.first_token_at is not None
                 else admitted)
        spans.emit_many(tid, parent, (
            ("queue", request.submitted_at, admitted, None),
            ("prefill", admitted, first,
             {"engine": self.name,
              "prompt_tokens": request.prompt_tokens,
              "cached_tokens": request.cached_tokens}),
            ("decode", first, now,
             {"output_tokens": request.tokens_generated,
              "preemptions": request.preemptions})))

    def _ensure_appendable(self, request: Request,
                           finished: list[Request]) -> bool:
        """Preempt (recompute-style) until ``request`` can grow.
        Returns False if the cache is full with no preemptable victim.

        A victim in ``finished`` already holds its whole token budget
        this iteration: it retires now, freeing the blocks it would
        free at the end of the iteration, instead of being preempted
        into a recompute it has no tokens left for.
        """
        while not self.blocks.can_append(request.id):
            victim = self.scheduler.victim(request)
            if victim is None:
                return False
            if victim in finished:
                finished.remove(victim)
                self._finish(victim, self.kernel.now)
            else:
                self._preempt(victim)
        return True

    def _preempt(self, victim: Request) -> None:
        self.running.remove(victim)
        victim.active = False
        self.blocks.free(victim.id)
        self._kv_tokens -= victim.total_tokens
        victim.preemptions += 1
        victim.needs_prefill = True  # recompute on readmission
        victim.prefill_done = False  # a handoff's KV is gone with the blocks
        self.scheduler.requeue(victim)
        self.kernel.trace.emit("vllm.preempt", engine=self.name,
                               request=victim.id)

    def _fail_outstanding(self, exc: Exception) -> None:
        for request in list(self.running) + list(self.waiting):
            if not request.done.triggered:
                request.done.fail(exc)
        for request in self.running:
            request.active = False
            if self.blocks.holds(request.id):
                self.blocks.free(request.id)
        self.running.clear()
        self.waiting.clear()
        self._kv_tokens = 0
