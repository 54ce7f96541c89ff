"""Session-level traffic: open-loop starts, closed-loop turns.

:class:`SessionTraffic` is the multi-turn sibling of
:class:`~repro.fleet.traffic.TrafficGenerator`: the arrival schedule now
emits *session starts* (a diurnal day of conversations, a flash crowd of
new users), and each started session runs as its own simkernel process
that plays its turns closed-loop — submit a turn, wait for the
completion, think, submit the next turn with the grown context.  Follow-
up turns therefore self-schedule: their timing depends on serving
latency plus think time, exactly like a real user typing after reading
the answer.

Determinism: session starts draw from one named stream
(``<prefix>.arrivals``); everything *inside* session ``i`` draws from
``<prefix>.s<i>``.  Session identity (the engine's prefix-cache key and
the router's affinity key) is ``s<i>`` — unique per scenario run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..obs.spans import SESSION
from .spec import SessionSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..fleet.traffic import ArrivalSchedule, TenantMix
    from ..simkernel import SimKernel

#: ``request_fn(tenant, prompt_tokens, output_tokens, session=..., turn=...)``
#: must be a *generator function* returning an object with ``ok`` and
#: ``output_tokens`` attributes (the fleet's ``Fleet.request``).
RequestFn = Callable[..., object]


@dataclass
class SessionLog:
    """Per-run session accounting (rolled into ``FleetReport.sessions``)."""

    started: int = 0
    finished: int = 0
    turns_submitted: int = 0
    turns_ok: int = 0
    aborted: int = 0            # ended early on a failed turn
    truncated: int = 0          # hit the context cap before their turns
    cut_by_horizon: int = 0     # day ended mid-conversation
    context_tokens_max: int = 0
    turns_per_session: dict[int, int] = field(default_factory=dict)

    def note_turns(self, n: int) -> None:
        self.turns_per_session[n] = self.turns_per_session.get(n, 0) + 1

    def to_json(self) -> dict:
        return {
            "started": self.started,
            "finished": self.finished,
            "turns_submitted": self.turns_submitted,
            "turns_ok": self.turns_ok,
            "aborted": self.aborted,
            "truncated": self.truncated,
            "cut_by_horizon": self.cut_by_horizon,
            "context_tokens_max": self.context_tokens_max,
            "turns_histogram": {str(k): v for k, v in
                                sorted(self.turns_per_session.items())},
        }


class SessionTraffic:
    """Drives multi-turn conversations against a request callback.

    ``run(horizon)`` is the generator process: it emits session starts
    for ``horizon`` seconds, then waits for every started conversation
    to end (sessions stop scheduling new turns once the horizon passes,
    so the wait is bounded by one in-flight turn per session).
    """

    def __init__(self, kernel: SimKernel, schedule: ArrivalSchedule,
                 spec: SessionSpec, request_fn: RequestFn,
                 mix: TenantMix | None = None,
                 stream_prefix: str = "sessions"):
        if not spec.enabled:
            raise ConfigurationError(
                "SessionTraffic needs an enabled SessionSpec")
        self.kernel = kernel
        self.schedule = schedule
        self.spec = spec
        self.request_fn = request_fn
        self.mix = mix
        self.stream_prefix = stream_prefix
        self.rng = kernel.rng.stream(f"{stream_prefix}.arrivals")
        self.log = SessionLog()
        reg = kernel.obs.registry
        reg.gauge("sessions_started", "Conversations begun") \
            .labels().set_function(lambda: self.log.started)
        reg.gauge("sessions_finished", "Conversations ended") \
            .labels().set_function(lambda: self.log.finished)
        reg.gauge("sessions_turns_ok", "Turns completed successfully") \
            .labels().set_function(lambda: self.log.turns_ok)

    # -- the open-loop session-start process ------------------------------------

    def run(self, horizon: float):
        kernel = self.kernel
        start = kernel.now
        end = start + horizon
        procs = []
        for t in self.schedule.arrivals(self.rng, start, horizon):
            if t > kernel.now:
                yield t - kernel.now
            sid = self.log.started
            self.log.started += 1
            tenant = "sessions"
            if self.mix is not None:
                tenant = self.mix.pick(self.rng).name
            procs.append(kernel.spawn(self._session(sid, tenant, end),
                                      name=f"session:s{sid}"))
            if self.log.started % 500 == 0:
                kernel.trace.emit("sessions.progress",
                                  started=self.log.started,
                                  finished=self.log.finished)
        if procs:
            yield kernel.all_of(procs)
        return self.log.started

    # -- one conversation --------------------------------------------------------

    def _session(self, sid: int, tenant: str, end: float):
        kernel = self.kernel
        spec = self.spec
        rng = kernel.rng.stream(f"{self.stream_prefix}.s{sid}")
        key = f"s{sid}"
        turns_planned = spec.draw_turns(rng)
        kernel.trace.emit("sessions.start", session=key, tenant=tenant,
                          turns=turns_planned)
        # One span per conversation (its own trace; each turn's request
        # opens a separate per-request trace via the fleet).  Its ids are
        # minted now and it is emitted closed when the conversation ends.
        spans = kernel.obs.spans
        trace_id, span_id = spans.start_trace()
        started = kernel.now
        context = 0
        turns_done = 0
        outcome = "finished"
        for turn in range(1, turns_planned + 1):
            new_user = (spec.draw_first_prompt(rng) if turn == 1
                        else spec.draw_followup(rng))
            budget = spec.draw_output(rng)
            prompt = context + new_user
            if prompt + budget > spec.max_context_tokens:
                outcome = "truncated"
                break
            self.log.turns_submitted += 1
            result = yield from self.request_fn(
                tenant, prompt, budget, session=key, turn=turn)
            if not result.ok:
                # The user gave up on an errored turn; the conversation
                # ends deterministically rather than retrying forever.
                outcome = "aborted"
                break
            self.log.turns_ok += 1
            turns_done += 1
            context = prompt + result.output_tokens
            self.log.context_tokens_max = max(
                self.log.context_tokens_max, context)
            if turn == turns_planned:
                break
            think = spec.draw_think(rng)
            if kernel.now + think >= end:
                outcome = "cut"
                break
            yield think
        self.log.finished += 1
        self.log.note_turns(turns_done)
        if outcome == "aborted":
            self.log.aborted += 1
        elif outcome == "truncated":
            self.log.truncated += 1
        elif outcome == "cut":
            self.log.cut_by_horizon += 1
        kernel.trace.emit("sessions.end", session=key, turns=turns_done,
                          context_tokens=context, outcome=outcome)
        spans.emit(SESSION, trace_id, span_id, 0, started, kernel.now, key,
                   tenant, turns_done, outcome, context)
        return turns_done
