"""The engine's scheduler: queues, admission, and the coalescing plan.

PRs 1-6 grew this logic inline in ``LLMEngine._loop``/``_admit``/
``_plan_jump``; it now lives in an explicit :class:`Scheduler` object
holding the waiting queue and running batch, with the policy decisions
— queue order, per-iteration admission, preemption victim choice, and
the coalesced-decode jump plan — delegated to a pluggable
:class:`SchedulingPolicy`:

* :class:`FcfsPolicy` (default) is the legacy behavior, verbatim:
  FCFS admission while KV blocks allow, LIFO recompute-preemption,
  and the PR 4 multi-iteration coalescing plan.  Bit-identical to the
  pre-extraction engine by construction (the property suite in
  ``tests/vllm/test_engine_coalescing.py`` holds it to that).
* :class:`PriorityPolicy` keeps the waiting queue ordered by
  ``(-priority, arrival)`` and preempts lower-priority running
  requests when a higher-priority arrival cannot otherwise be
  admitted.
* :class:`ChunkedPrefillPolicy` spreads each prompt's prefill over
  iterations in ``chunk_tokens`` slices, so one long prompt no longer
  stalls every in-flight decode for a full prefill (the TTFT tail win
  of chunked prefill).

Coalescing compatibility (see ``docs/serving.md``): the jump plan's
proof obligations — "the waiting head cannot become admissible
mid-jump" and "no first token fires mid-jump" — are FCFS-specific, so
only :class:`FcfsPolicy` declares ``supports_coalescing``.  The other
policies return a zero-length jump and the engine asserts it never
enters a fast-forward under them.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import LLMEngine, Request

__all__ = ["Scheduler", "SchedulingPolicy", "FcfsPolicy", "PriorityPolicy",
           "ChunkedPrefillPolicy", "SCHEDULER_POLICIES", "make_policy"]

#: Policy names accepted by ``--scheduler-policy`` / ``ScenarioSpec``.
SCHEDULER_POLICIES = ("fcfs", "priority", "chunked")


class SchedulingPolicy:
    """Strategy interface; every hook receives the owning Scheduler."""

    name = "abstract"
    #: Whether the PR 4 coalesced-decode fast-forward may run under
    #: this policy.  Only FCFS can: the jump-plan argument relies on
    #: admission order being frozen while the engine sleeps.
    supports_coalescing = False

    def enqueue(self, sched: Scheduler, request: Request) -> None:
        raise NotImplementedError

    def requeue(self, sched: Scheduler, victim: Request) -> None:
        """Return a preempted request to the waiting queue."""
        raise NotImplementedError

    def schedule(self, sched: Scheduler) -> int:
        """Admit work for one iteration; returns prefill tokens to
        charge this step."""
        raise NotImplementedError

    def plan_jump(self, sched: Scheduler) -> int:
        """Iterations provably free of scheduling events (0 = none)."""
        return 0

    def victim(self, sched: Scheduler,
               protect: Request) -> Request | None:
        """Choose a preemption victim so ``protect`` can grow."""
        for candidate in reversed(sched.running):
            if candidate is not protect:
                return candidate
        return None


class Scheduler:
    """Owns the waiting queue and running batch of one engine.

    The engine keeps the resources (BlockManager, perf model, KV
    counter) and the iteration loop; the scheduler decides *which*
    requests hold them.  ``waiting``/``running`` are the only queue
    storage — ``LLMEngine.waiting``/``running`` alias these same
    objects, so neither is ever rebound.
    """

    def __init__(self, engine: LLMEngine, policy: SchedulingPolicy):
        self.engine = engine
        self.policy = policy
        self.waiting: deque[Request] = deque()
        self.running: list[Request] = []

    @property
    def supports_coalescing(self) -> bool:
        return self.policy.supports_coalescing

    def enqueue(self, request: Request) -> None:
        self.policy.enqueue(self, request)

    def requeue(self, victim: Request) -> None:
        self.policy.requeue(self, victim)

    def schedule(self) -> int:
        return self.policy.schedule(self)

    def plan_jump(self) -> int:
        return self.policy.plan_jump(self)

    def victim(self, protect: Request) -> Request | None:
        return self.policy.victim(self, protect)

    # -- shared admission machinery ----------------------------------------------

    def can_admit(self, request: Request) -> bool:
        """The one admission predicate, shared by admission and
        :meth:`plan_jump`.

        This sharing is the coalescing guard: per-iteration stepping
        and the fast-forward planner must agree *exactly* on whether
        the waiting head is admissible (prefix-cache hits and
        evictable blocks included), or a jump could sleep past an
        admission the stepwise engine would have made — breaking
        bit-identity.
        """
        blocks = self.engine.blocks
        return blocks.can_allocate(request.total_tokens,
                                   prefix_key=request.session_key)

    def admit_head(self) -> Request:
        """Pop the waiting head into the running batch; returns it with
        ``cached_tokens``/``needs_prefill`` updated (prefill cost is
        the caller's to account — policies differ on when to pay it).
        """
        engine = self.engine
        nxt = self.waiting.popleft()
        if nxt.admitted_at is None:   # keep first admission on recompute
            nxt.admitted_at = engine.kernel.now
        cached = engine.blocks.allocate(nxt.id, nxt.total_tokens,
                                        prefix_key=nxt.session_key)
        nxt.cached_tokens = cached
        nxt.needs_prefill = True
        nxt.active = True
        self.running.append(nxt)
        engine._kv_tokens += nxt.total_tokens
        return nxt


class FcfsPolicy(SchedulingPolicy):
    """First-come-first-served admission — the legacy engine, verbatim."""

    name = "fcfs"
    supports_coalescing = True

    def enqueue(self, sched: Scheduler, request: Request) -> None:
        sched.waiting.append(request)

    def requeue(self, sched: Scheduler, victim: Request) -> None:
        # Recompute-preemption readmits LIFO: the youngest victim goes
        # back first, ahead of never-admitted arrivals.
        sched.waiting.appendleft(victim)

    def schedule(self, sched: Scheduler) -> int:
        """FCFS admission while KV blocks allow; returns prefill tokens.

        With prefix caching, tokens covered by cached blocks are
        excluded from the returned prefill cost — the engine skips that
        compute entirely, which is the TTFT win of a warm conversation.
        A ``prefill_done`` request (disaggregated handoff) charges no
        prefill at all on its first admission: the KV arrived over the
        fabric.
        """
        engine = sched.engine
        waiting = sched.waiting
        prefill = 0
        while waiting and len(sched.running) < engine.args.max_num_seqs:
            nxt = waiting[0]
            needed = nxt.total_tokens  # includes recompute after preemption
            if not sched.can_admit(nxt):
                break
            sched.admit_head()
            if nxt.prefill_done:
                # One-shot: a preemption drops the transferred KV, so
                # recompute prefills locally like any other request.
                nxt.prefill_done = False
                nxt.needs_prefill = False
            else:
                prefill += needed - nxt.cached_tokens
        return prefill

    def plan_jump(self, sched: Scheduler) -> int:
        """Iterations guaranteed free of finishes, first tokens,
        admissions, and preemptions — eligible for one coalesced sleep.

        A *blocked* waiting queue cannot unblock mid-jump (free KV
        blocks only shrink between finishes and the batch-size cap only
        loosens at one) — but an *admissible* head must be admitted at
        this boundary, exactly as per-iteration stepping would: a
        request that arrived during the previous iteration's sleep had
        no jump sleep to wake, so it must not be slept past here.

        Prefix caching does not loosen this argument: admissibility
        (:meth:`Scheduler.can_admit`) reads cached hits plus evictable
        blocks, and mid-jump neither can grow — registrations happen
        only at finishes (none in a jump) and appends only consume
        capacity.  Evictable cached blocks *do* count toward the
        block-crossing budget below: evictions cost no simulated time
        and pop a deterministic LRU, so bulk-applied iterations evict
        exactly the blocks per-iteration stepping would.
        """
        engine = sched.engine
        running = sched.running
        waiting = sched.waiting
        if waiting and (len(running) < engine.args.max_num_seqs
                        and sched.can_admit(waiting[0])):
            return 0
        # Single pass over the batch: the shortest remaining decode
        # bounds the jump, and any pending prefill vetoes it.  This
        # runs once per coalesced sleep, so it stays allocation-free
        # until the KV-headroom check below actually needs per-offset
        # accounting.
        j = -1
        for request in running:
            if request.needs_prefill:   # first token pending
                return 0
            left = request.max_new_tokens - request.tokens_generated
            if j < 0 or left < j:
                j = left
        j -= 1
        if j < 1:
            return 0
        blocks = engine.blocks
        free = blocks.free_blocks + blocks.evictable_blocks
        bs = blocks.block_size
        # Worst case every sequence crosses a block edge once per ``bs``
        # iterations; bound j so the crossings cannot exhaust the free
        # blocks (which would mean a mid-jump preemption).  When even
        # the worst case fits, skip the per-offset histogram — the hot
        # case whenever KV headroom is plentiful.
        if len(running) * (j // bs + 1) <= free:
            return j
        counts = [0] * bs
        for request in running:
            counts[(request.total_tokens - 1) % bs] += 1

        def crossings(jj: int) -> int:
            return sum(c * ((s + jj) // bs)
                       for s, c in enumerate(counts) if c)

        if crossings(j) > free:
            lo, hi = 0, j
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if crossings(mid) <= free:
                    lo = mid
                else:
                    hi = mid - 1
            j = lo
        return j


class PriorityPolicy(SchedulingPolicy):
    """Priority admission with cross-class preemption.

    The waiting queue is kept ordered by ``(-priority, arrival)``; a
    waiting head that cannot be admitted may evict a running request of
    *strictly lower* priority (recompute-style, youngest victim first
    among the lowest class).  Within one priority class the behavior
    degenerates to FCFS — the policy-swap equivalence tests pin that.
    Coalescing is off: an admissible-priority arrival must be able to
    preempt at the very next iteration boundary, which the jump plan
    cannot guarantee.
    """

    name = "priority"

    @staticmethod
    def _key(request: Request) -> tuple:
        # ``id`` is monotone within one engine (process-global counter),
        # so it is the arrival tie-break; a preempted request keeps its
        # original id and re-sorts ahead of younger peers of its class.
        return (-request.priority, request.id)

    def _insert(self, sched: Scheduler, request: Request) -> None:
        waiting = sched.waiting
        key = self._key(request)
        # Linear scan from the tail: arrivals are usually lowest-rank.
        idx = len(waiting)
        while idx > 0 and self._key(waiting[idx - 1]) > key:
            idx -= 1
        waiting.insert(idx, request)

    def enqueue(self, sched: Scheduler, request: Request) -> None:
        self._insert(sched, request)

    def requeue(self, sched: Scheduler, victim: Request) -> None:
        self._insert(sched, victim)

    def victim(self, sched: Scheduler,
               protect: Request) -> Request | None:
        # Lowest priority first; LIFO (latest id) within the class.
        best = None
        for candidate in sched.running:
            if candidate is protect:
                continue
            if best is None or (candidate.priority, -candidate.id) \
                    < (best.priority, -best.id):
                best = candidate
        return best

    def schedule(self, sched: Scheduler) -> int:
        engine = sched.engine
        waiting = sched.waiting
        prefill = 0
        while waiting and len(sched.running) < engine.args.max_num_seqs:
            nxt = waiting[0]
            needed = nxt.total_tokens
            while not sched.can_admit(nxt):
                # Make room by evicting strictly lower-priority work.
                victim = self.victim(sched, nxt)
                if victim is None or victim.priority >= nxt.priority:
                    break
                engine._preempt(victim)
            if not sched.can_admit(nxt):
                break
            sched.admit_head()
            if nxt.prefill_done:
                nxt.prefill_done = False
                nxt.needs_prefill = False
            else:
                prefill += needed - nxt.cached_tokens
        return prefill


class ChunkedPrefillPolicy(SchedulingPolicy):
    """FCFS admission with prefill spread over ``chunk_tokens`` slices.

    Each iteration charges at most ``chunk_tokens`` of prefill compute:
    in-flight prefills (admission order) drain first, then new
    admissions join while budget remains.  A request holds its KV
    allocation from admission but generates nothing until its
    ``prefill_remaining`` reaches zero — so a 100k-token prompt adds
    bounded latency to every iteration instead of one giant stall,
    trading its own TTFT for the batch's inter-token latency.
    Coalescing is off: prefill slices are per-iteration events by
    definition.
    """

    name = "chunked"

    def __init__(self, chunk_tokens: int = 512):
        if chunk_tokens < 1:
            raise ConfigurationError(
                f"chunk_tokens must be positive, got {chunk_tokens}")
        self.chunk_tokens = chunk_tokens

    def enqueue(self, sched: Scheduler, request: Request) -> None:
        sched.waiting.append(request)

    def requeue(self, sched: Scheduler, victim: Request) -> None:
        victim.prefill_remaining = 0   # recompute restarts the slices
        sched.waiting.appendleft(victim)

    def schedule(self, sched: Scheduler) -> int:
        engine = sched.engine
        budget = self.chunk_tokens
        charged = 0
        # Drain in-flight prefills first, in admission order.
        for request in sched.running:
            if budget <= 0:
                break
            if request.prefill_remaining > 0:
                take = min(budget, request.prefill_remaining)
                request.prefill_remaining -= take
                budget -= take
                charged += take
        # Admit while budget remains for at least one slice.
        waiting = sched.waiting
        while (budget > 0 and waiting
               and len(sched.running) < engine.args.max_num_seqs):
            nxt = waiting[0]
            needed = nxt.total_tokens
            if not sched.can_admit(nxt):
                break
            sched.admit_head()
            if nxt.prefill_done:
                nxt.prefill_done = False
                nxt.needs_prefill = False
                continue
            remaining = needed - nxt.cached_tokens
            take = min(budget, remaining)
            nxt.prefill_remaining = remaining - take
            budget -= take
            charged += take
        return charged


def make_policy(name: str, chunk_tokens: int = 512) -> SchedulingPolicy:
    """Policy factory for ``EngineArgs.scheduler_policy``."""
    if name == "fcfs":
        return FcfsPolicy()
    if name == "priority":
        return PriorityPolicy()
    if name == "chunked":
        return ChunkedPrefillPolicy(chunk_tokens=chunk_tokens)
    raise ConfigurationError(
        f"unknown scheduler policy {name!r} "
        f"(choices: {', '.join(SCHEDULER_POLICIES)})")
