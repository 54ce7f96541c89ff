"""Re-armed engine jumps against the earlier ``Sleep``-timer jump.

The engine waits out a coalesced decode jump on its process's own
waker (``yield duration``).  A nudge applies the whole iterations
elapsed so far at once and re-arms the wake, in place, to the end of
the iteration in flight (``Process.rearm``).  Before that, the jump
waited on a wakeable ``Sleep`` timer: a nudge queued the sleep at
``now``, and the resumed jump worked those iterations out one heap
entry later.  ``_SleepJumpEngine`` below is a frozen copy of that code
and is the oracle: over drawn arrival streams, drawn mid-jump actions
and every scheduler policy, both must give bit-equal finish times,
first-token times, tokens, iterations and preemptions.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import APIError
from repro.hardware import gpu_spec
from repro.models import llama4_scout
from repro.simkernel import Event, Process, SimKernel, Timeout
from repro.vllm import (SCHEDULER_POLICIES, EngineArgs, LLMEngine,
                        PerfModel, PerfProfile, RequestSpec)
from repro.vllm.faults import attach


class _Sleep(Timeout):
    """Frozen copy of the removed ``simkernel.Sleep``: a timeout that
    ``wake()`` fires at the current instant; its deadline entry is then
    a no-op, and a wake at the deadline instant loses to it."""

    __slots__ = ("deadline", "woke")

    def __init__(self, kernel, delay):
        super().__init__(kernel, delay)
        self.deadline = kernel.now + delay
        self.woke = False

    def wake(self):
        if self._processed or self.woke:
            return
        self.woke = True
        self.kernel._schedule(self)

    def _run_callbacks(self):
        if self._processed:
            return
        if self.woke and self.kernel.now >= self.deadline:
            self.woke = False
        Event._run_callbacks(self)


class _SleepJumpEngine(LLMEngine):
    """Frozen copy of the engine's jump as it was on ``_Sleep``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._jump_sleep = None

    def nudge(self):
        if self._jump_sleep is not None:
            self._jump_sleep.wake()

    def stop(self):
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("engine stop")

    def _fast_forward(self):
        j = self.scheduler.plan_jump()
        if j < self.MIN_JUMP:
            return
        kernel = self.kernel
        batch = len(self.running)
        const, kv_coeff = self.perf.decode_coeffs(batch)
        per_iter = const + kv_coeff * self._kv_tokens
        kv_growth = kv_coeff * batch

        def cum(m):
            return m * per_iter + kv_growth * (m * (m - 1) * 0.5)

        sleep = self._jump_sleep = _Sleep(kernel, cum(j))
        started = kernel.now
        try:
            yield sleep
        finally:
            self._jump_sleep = None
        if not sleep.woke:
            self._apply_iterations(j)
            return
        elapsed = kernel.now - started
        lo, hi = 0, j - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if cum(mid) <= elapsed:
                lo = mid
            else:
                hi = mid - 1
        m = lo
        self._apply_iterations(m)
        remainder = cum(m + 1) - elapsed
        if remainder > 0:
            yield remainder
        self._apply_iterations(1)


#: One drawn arrival: the gap since the previous one (0 is a tie),
#: prompt, output budget, priority class, session key, and whether it
#: is a disaggregated handoff.
ARRIVAL = st.tuples(
    st.sampled_from((0.0, 0.0, 0.01, 0.05, 0.2, 1.0, 5.0)),
    st.integers(16, 480), st.integers(2, 400), st.sampled_from((0, 1, 5)),
    st.sampled_from((None, "a", "b")), st.booleans())

#: Where inside a jump an action lands, as a fraction of its duration.
FRAC = st.sampled_from((0.0, 0.25, 0.5, 0.999)) | st.floats(0.0, 1.0)

#: One action per planned jump, taken in order; an exhausted list
#: leaves later jumps alone.
ACTION = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("nudge"), FRAC),      # an arrival mid-jump
    st.tuples(st.just("twice"), FRAC),      # two arrivals, one instant
    st.just(("deadline",)),                 # at the deadline, ahead of it
    st.just(("last_ulp",)),                 # the float before the deadline
    st.tuples(st.just("boundary"), FRAC),   # on an iteration boundary
    st.tuples(st.just("fault"), FRAC, st.booleans()),
    st.tuples(st.just("stop"), FRAC,
              st.sampled_from(("alone", "stop_first", "nudge_first"))),
)


def _engine(kernel, cls, policy, kv_tokens, max_num_seqs, chunk_tokens):
    card = llama4_scout()
    gpu = gpu_spec("H100-SXM-80G")
    args = EngineArgs(model=card.name, tensor_parallel_size=4,
                      max_model_len=65536, max_num_seqs=max_num_seqs,
                      scheduler_policy=policy, chunk_tokens=chunk_tokens,
                      enable_prefix_caching=True)
    perf = PerfModel(card, gpu, 4, profile=PerfProfile())
    engine = cls(kernel, card, perf, args, kv_tokens)
    engine.start()
    return engine


def _trajectory(cls, policy, arrivals, actions, kv_tokens=200_000,
                max_num_seqs=4, chunk_tokens=512, probe=None):
    """Drive one engine; returns every request's observables in
    submission order plus the engine's run totals.

    The scheduler's ``plan_jump`` is wrapped so each planned jump takes
    the next drawn action.  The wrapper works out the jump's deadline as
    the engine does and queues the action with ``call_at`` before the
    engine queues its own wait, so an action at the deadline instant
    runs ahead of the jump's wake.  ``probe`` (the re-armed engine only)
    counts the nudge cases the actions reached.
    """
    kernel = SimKernel(seed=13)
    engine = _engine(kernel, cls, policy, kv_tokens, max_num_seqs,
                     chunk_tokens)
    requests = []
    refused = []
    pending = list(actions)

    def submit(spec):
        try:
            requests.append(engine.submit(spec))
        except APIError as exc:
            refused.append((kernel.now, exc.status))

    def extra():
        return RequestSpec(64, 24, priority=1)

    def nudge(deadline, n=1):
        def act(_arg):
            if probe is not None and engine._jump is not None:
                probe["deadline"] += kernel.now >= deadline
            for _ in range(n):
                submit(extra())
            if probe is not None and n > 1:
                probe["twice"] += engine._jump is None \
                    and engine._proc._waiting_on is engine._proc._waker
        return act

    def fault(crash):
        def act(_arg):
            if probe is not None:
                probe["fault"] += engine._jump is not None
            attach(engine, lambda _e: "injected" if crash else None)
        return act

    def stop(order):
        def act(_arg):
            if probe is not None:
                probe["stop"] += engine._jump is not None
            if order == "nudge_first":
                submit(extra())
            engine.stop()
            if order == "stop_first":
                submit(extra())
        return act

    scheduler = engine.scheduler
    plan = scheduler.plan_jump

    def planned():
        j = plan()
        if j < engine.MIN_JUMP or not pending:
            return j
        batch = len(engine.running)
        const, kv_coeff = engine.perf.decode_coeffs(batch)
        per_iter = const + kv_coeff * engine._kv_tokens
        kv_growth = kv_coeff * batch

        def cum(m):
            return m * per_iter + kv_growth * (m * (m - 1) * 0.5)

        started = kernel.now
        deadline = started + cum(j)
        kind, *args = pending.pop(0)
        if kind == "none":
            return j
        if kind == "deadline":
            at, act = deadline, nudge(deadline)
        elif kind == "last_ulp":
            at, act = math.nextafter(deadline, -math.inf), nudge(deadline)
        elif kind == "boundary":
            m = min(j - 1, max(1, int(args[0] * j)))
            at, act = started + cum(m), nudge(deadline)
        else:
            at = started + args[0] * cum(j)
            act = {"nudge": lambda: nudge(deadline),
                   "twice": lambda: nudge(deadline, 2),
                   "fault": lambda: fault(args[1]),
                   "stop": lambda: stop(args[1])}[kind]()
        kernel.call_at(at, act)
        return j

    scheduler.plan_jump = planned

    def feeder(env):
        for gap, prompt, max_new, priority, session, handoff in arrivals:
            if gap:
                yield gap
            submit(RequestSpec(prompt, max_new, session_key=session,
                               priority=priority, prefill_done=handoff,
                               tokens_generated=int(handoff)))

    kernel.spawn(feeder(kernel))
    kernel.run(until=1e6)

    def outcome(done):
        if not done.triggered:
            return "pending"
        return "ok" if done.ok else type(done.value).__name__

    return ([(r.submitted_at, r.first_token_at, r.finished_at,
              r.tokens_generated, r.preemptions, r.cached_tokens,
              outcome(r.done)) for r in requests],
            refused, engine.iterations, engine.total_output_tokens,
            engine.completed_count, engine.kv_tokens_in_use,
            repr(engine.crashed))


def _both(policy, arrivals, actions, **kwargs):
    ours = _trajectory(LLMEngine, policy, arrivals, actions, **kwargs)
    oracle = _trajectory(_SleepJumpEngine, policy, arrivals, actions,
                         **kwargs)
    return ours, oracle


#: Hand-made cases that reach every nudge case (see the coverage test).
_LONG = [(0.0, 200, 400, 0, None, False), (0.0, 300, 380, 0, "a", False)]
CASES = [
    ("fcfs", _LONG, [("nudge", 0.5), ("twice", 0.3), ("deadline",),
                     ("last_ulp",), ("boundary", 0.5)]),
    # Its first jump's deadline is the float after the one the nudge
    # lands on, yet ``now - started`` rounds up to the jump's length:
    # the re-arm's remainder is 0.
    ("fcfs", [(0.01, 289, 150, 0, None, False)], [("last_ulp",)] * 3),
    ("priority", _LONG, [("none",), ("fault", 0.4, False), ("nudge", 0.5)]),
    ("chunked", _LONG, [("nudge", 0.1), ("fault", 0.6, True)]),
    ("fcfs", _LONG, [("twice", 0.2), ("stop", 0.5, "alone")]),
    ("fcfs", _LONG, [("stop", 0.5, "stop_first")]),
    ("priority", _LONG, [("stop", 0.25, "nudge_first")]),
]


@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
@settings(max_examples=40, deadline=None)
@example(arrivals=_LONG, actions=CASES[0][2], kv_tokens=200_000,
         max_num_seqs=4)
@example(arrivals=CASES[1][1], actions=CASES[1][2], kv_tokens=200_000,
         max_num_seqs=4)
# A stop at the jump's deadline instant: the jump has completed.
@example(arrivals=[(0.0, 16, 6, 0, None, False)],
         actions=[("stop", 1.0, "alone")], kv_tokens=1024, max_num_seqs=1)
@given(arrivals=st.lists(ARRIVAL, min_size=1, max_size=10),
       actions=st.lists(ACTION, max_size=8),
       kv_tokens=st.sampled_from((1024, 4096, 200_000)),
       max_num_seqs=st.integers(1, 4))
def test_rearmed_jumps_equal_sleep_jumps(policy, arrivals, actions,
                                         kv_tokens, max_num_seqs):
    ours, oracle = _both(policy, arrivals, actions, kv_tokens=kv_tokens,
                         max_num_seqs=max_num_seqs, chunk_tokens=64)
    assert ours == oracle


def test_the_cases_reach_every_nudge_case(monkeypatch):
    """The hand-made cases are not vacuous: between them they nudge at a
    deadline instant, nudge twice in one jump, re-arm with a remainder
    <= 0, attach a fault plan mid-jump and stop mid-jump, and each
    matches the oracle."""
    probe = dict.fromkeys(("deadline", "twice", "fault", "stop"), 0)
    rearms = []
    rearm = Process.rearm

    def recording(self, delay):
        rearms.append(delay)
        rearm(self, delay)

    monkeypatch.setattr(Process, "rearm", recording)
    for policy, arrivals, actions in CASES:
        ours = _trajectory(LLMEngine, policy, arrivals, actions,
                           probe=probe)
        oracle = _trajectory(_SleepJumpEngine, policy, arrivals, actions)
        assert ours == oracle
    assert all(probe.values()), probe
    assert any(delay > 0 for delay in rearms)
    assert 0.0 in rearms, "no re-arm with a remainder <= 0"
