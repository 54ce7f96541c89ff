"""The engine's scheduler: queues, admission, and the coalescing plan.

A :class:`Scheduler` holds one engine's waiting queue and running batch
and makes every policy decision over them: queue order, per-iteration
admission, the preemption victim, and the coalesced-decode jump plan.
The base class *is* the FCFS scheduler; each other policy subclasses it
and overrides only the decisions it changes:

* :class:`Scheduler` (``fcfs``, the default): FCFS admission while KV
  blocks allow, LIFO recompute-preemption, and the coalescing plan;
* :class:`PriorityScheduler`: admission by ``(-priority, arrival)``,
  evicting lower classes to admit a higher one;
* :class:`ChunkedScheduler`: each prefill paid in ``chunk_tokens``
  slices.

Every policy runs the same engine loop and coalescing plan (see
``docs/serving.md``); a subclass overrides :meth:`Scheduler.plan_jump`
only to veto the boundaries its own decisions can change.

Policy names are validated where they enter the program
(``EngineArgs``, ``ScenarioSpec``, ``--scheduler-policy``), all from
:data:`SCHEDULER_POLICIES`, so the table lookup here cannot miss.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import LLMEngine, Request

__all__ = ["Scheduler", "PriorityScheduler", "ChunkedScheduler",
           "SCHEDULERS", "SCHEDULER_POLICIES"]


class Scheduler:
    """The FCFS scheduler, and the base every other policy overrides.

    The engine keeps the resources (BlockManager, perf model, KV
    counter) and the iteration loop; the scheduler decides *which*
    requests hold them.  ``waiting``/``running`` are the only queue
    storage — ``LLMEngine.waiting``/``running`` alias these same
    objects, so neither is ever rebound.
    """

    name = "fcfs"

    def __init__(self, engine: LLMEngine):
        self.engine = engine
        self.waiting: deque[Request] = deque()
        self.running: list[Request] = []

    def enqueue(self, request: Request) -> None:
        self.waiting.append(request)

    def requeue(self, victim: Request) -> None:
        """Return a preempted request to the waiting queue.

        Recompute-preemption readmits LIFO: the youngest victim goes
        back first, ahead of never-admitted arrivals.
        """
        self.waiting.appendleft(victim)

    def victim(self, protect: Request) -> Request | None:
        """Choose a preemption victim so ``protect`` can grow: the
        youngest running request."""
        for candidate in reversed(self.running):
            if candidate is not protect:
                return candidate
        return None

    # -- admission ----------------------------------------------------------------

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
        return self.engine.blocks.can_allocate(
            request.total_tokens, prefix_key=request.session_key)

    def make_room(self, request: Request) -> bool:
        """Whether the waiting head ``request`` may be admitted now.

        FCFS never evicts to admit: the head waits for KV blocks.
        """
        return self.can_admit(request)

    def admit_head(self) -> int:
        """Pop the waiting head into the running batch; returns the
        prefill tokens it owes.

        With prefix caching, tokens covered by cached blocks are owed
        nothing — the engine skips that compute entirely, which is the
        TTFT win of a warm conversation.  A ``prefill_done`` request
        (disaggregated handoff) owes no prefill at all on its first
        admission: the KV arrived over the fabric.
        """
        engine = self.engine
        nxt = self.waiting.popleft()
        if nxt.admitted_at is None:   # keep first admission on recompute
            nxt.admitted_at = engine.kernel.now
        total = nxt.total_tokens      # includes recompute after preemption
        cached = engine.blocks.allocate(nxt.id, total,
                                        prefix_key=nxt.session_key)
        nxt.cached_tokens = cached
        nxt.active = True
        self.running.append(nxt)
        engine._kv_tokens += total
        if nxt.prefill_done:
            # One-shot: a preemption drops the transferred KV, so
            # recompute prefills locally like any other request.
            nxt.prefill_done = False
            nxt.needs_prefill = False
            return 0
        nxt.needs_prefill = True
        return total - cached

    def schedule(self) -> int:
        """Admit work for one iteration; returns the prefill tokens to
        charge this step.  Admits in queue order while the batch-size
        cap and :meth:`make_room` allow."""
        waiting = self.waiting
        running = self.running
        max_num_seqs = self.engine.args.max_num_seqs
        prefill = 0
        while (waiting and len(running) < max_num_seqs
               and self.make_room(waiting[0])):
            prefill += self.admit_head()
        return prefill

    # -- coalescing -----------------------------------------------------------------

    def plan_jump(self) -> int:
        """Iterations guaranteed free of finishes, first tokens,
        admissions, and preemptions — eligible for one coalesced sleep.

        This is FCFS's plan, and the base every policy runs: a subclass
        whose :meth:`make_room` or :meth:`schedule` can change the batch
        where FCFS's could not overrides it to veto those boundaries.

        A *blocked* waiting queue cannot unblock mid-jump (free KV
        blocks only shrink between finishes and the batch-size cap only
        loosens at one) — but an *admissible* head must be admitted at
        this boundary, exactly as per-iteration stepping would: a
        request that arrived during the previous iteration's sleep had
        no jump sleep to wake, so it must not be slept past here.

        Prefix caching does not loosen this argument: admissibility
        (:meth:`can_admit`) reads cached hits plus evictable blocks,
        and mid-jump neither can grow — registrations happen only at
        finishes (none in a jump) and appends only consume capacity.
        Evictable cached blocks *do* count toward the block-crossing
        budget below: evictions cost no simulated time and pop a
        deterministic LRU, so bulk-applied iterations evict exactly the
        blocks per-iteration stepping would.
        """
        engine = self.engine
        running = self.running
        waiting = self.waiting
        if waiting and (len(running) < engine.args.max_num_seqs
                        and self.can_admit(waiting[0])):
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


class PriorityScheduler(Scheduler):
    """Priority admission with cross-class preemption.

    The waiting queue is kept ordered by ``(-priority, arrival)``; a
    waiting head that cannot be admitted may evict a running request of
    *strictly lower* priority (recompute-style, youngest victim first
    among the lowest class).  Within one priority class the behavior
    degenerates to FCFS — the policy-swap equivalence tests pin that.
    Coalescing adds one veto (:meth:`plan_jump`): no jump while the
    waiting head could evict at the next boundary.
    """

    name = "priority"

    @staticmethod
    def _key(request: Request) -> tuple:
        # ``id`` is monotone within one engine (process-global counter),
        # so it is the arrival tie-break; a preempted request keeps its
        # original id and re-sorts ahead of younger peers of its class.
        return (-request.priority, request.id)

    def enqueue(self, request: Request) -> None:
        waiting = self.waiting
        key = self._key(request)
        # Linear scan from the tail: arrivals are usually lowest-rank.
        idx = len(waiting)
        while idx > 0 and self._key(waiting[idx - 1]) > key:
            idx -= 1
        waiting.insert(idx, request)

    requeue = enqueue

    def victim(self, protect: Request) -> Request | None:
        # Lowest priority first; LIFO (latest id) within the class.
        best = None
        for candidate in self.running:
            if candidate is protect:
                continue
            if best is None or (candidate.priority, -candidate.id) \
                    < (best.priority, -best.id):
                best = candidate
        return best

    def make_room(self, request: Request) -> bool:
        """Evict strictly lower-priority work until ``request`` fits."""
        while not self.can_admit(request):
            victim = self.victim(request)
            if victim is None or victim.priority >= request.priority:
                return False
            self.engine._preempt(victim)
        return True

    def plan_jump(self) -> int:
        """FCFS's plan, vetoed while :meth:`make_room` could evict: a
        seat is free and a running request ranks below the waiting head."""
        waiting = self.waiting
        running = self.running
        if (waiting and len(running) < self.engine.args.max_num_seqs
                and any(r.priority < waiting[0].priority for r in running)):
            return 0
        return super().plan_jump()


class ChunkedScheduler(Scheduler):
    """FCFS admission with prefill spread over ``chunk_tokens`` slices.

    Each iteration charges at most ``chunk_tokens`` of prefill compute:
    in-flight prefills (admission order) drain first, then new
    admissions join while budget remains.  A request holds its KV
    allocation from admission but generates nothing until its
    ``prefill_remaining`` reaches zero — so a 100k-token prompt adds
    bounded latency to every iteration instead of one giant stall,
    trading its own TTFT for the batch's inter-token latency.
    Coalescing needs no override: a request still paying slices has its
    first token pending, which vetoes the base plan, and with no slice
    in flight the budget is whole, so admission is FCFS's
    :meth:`can_admit`.
    """

    name = "chunked"

    def __init__(self, engine: LLMEngine):
        super().__init__(engine)
        self.chunk_tokens = engine.args.chunk_tokens

    def schedule(self) -> int:
        budget = self.chunk_tokens
        # Drain in-flight prefills first, in admission order.
        for request in self.running:
            if budget <= 0:
                break
            if request.prefill_remaining > 0:
                take = min(budget, request.prefill_remaining)
                request.prefill_remaining -= take
                budget -= take
        # Admit while budget remains for at least one slice.
        waiting = self.waiting
        max_num_seqs = self.engine.args.max_num_seqs
        while (budget > 0 and waiting
               and len(self.running) < max_num_seqs
               and self.make_room(waiting[0])):
            owed = self.admit_head()
            take = min(budget, owed)
            # Set on every admission, so a recompute restarts the slices.
            self.running[-1].prefill_remaining = owed - take
            budget -= take
        return self.chunk_tokens - budget


#: Policy name -> scheduler class, the one place a policy is registered.
SCHEDULERS: dict[str, type[Scheduler]] = {
    cls.name: cls for cls in (Scheduler, PriorityScheduler, ChunkedScheduler)}

#: Policy names accepted by ``--scheduler-policy`` / ``ScenarioSpec``.
SCHEDULER_POLICIES = tuple(SCHEDULERS)
