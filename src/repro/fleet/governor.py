"""The fleet's quiet-play governor: the one tick protocol every periodic
fleet loop waits through, :meth:`FleetFastForward.wait_tick`."""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TYPE_CHECKING

from ..net.http import lookup
from ..simkernel.ticks import NO_TICKS, TickRun

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import Event, Timeout
    from .fleet import Fleet

#: Value of every governed periodic wake (see
#: :meth:`FleetFastForward.next_tick`); no loop reads it.  The quiet
#: window's edge is the earliest pending kernel entry without it.
_TICK = object()


class FleetFastForward:
    """Governor for the fleet's quiet-play: skipping idle periodic ticks.

    Every periodic fleet loop waits through :meth:`wait_tick`.  While
    the fleet is provably idle (:meth:`quiet`), the wait skips the
    loop's ticks before one fleet-wide :meth:`edge` and wakes the loop
    on its last tick before it, which then runs live; otherwise it is a
    plain wait of ``interval``.  The edge is the earliest pending kernel
    entry that is not a governed tick, so one rule covers every traffic
    kind: an open-loop arrival, a session's think timer, a deploy or a
    timer any process set all end a window.  Tick times always follow
    the loop's own stepped float chain, so the live tick lands on the
    exact instant stepping would have run it.

    Everything here is advisory: with ``ScenarioSpec.fast_forward``
    False every loop steps.  A chaos fault ends quiet-play only through
    the state :meth:`quiet` reads.
    """

    def __init__(self, fleet: Fleet):
        self.fleet = fleet
        self.kernel = fleet.kernel
        #: requests issued through :meth:`Fleet.request` (the one path)
        self.fast_requests = 0
        self._edge = -math.inf

    # -- eligibility -----------------------------------------------------------

    def engines(self) -> dict | None:
        """(host, port) -> live LLMEngine behind each router backend.

        Resolved on every call; None, which disqualifies quiet-play,
        when a backend resolves to no vLLM engine (stopped container,
        evicted pod) or its host or the router's is partitioned.
        """
        router = self.fleet.router_app
        fabric = self.fleet.site.fabric
        if router is None or fabric.partitioned(self.fleet.router_host):
            return None
        engines = {}
        for b in router.backends:
            engine = getattr(getattr(lookup(fabric, b.host, b.port),
                                     "app", None), "engine", None)
            if engine is None or fabric.partitioned(b.host):
                return None
            engines[(b.host, b.port)] = engine
        return engines

    def quiet(self) -> bool:
        """Is the fleet provably idle right now?

        True only when fast-forward is enabled and nothing is in flight
        anywhere — no open-loop request, no deploy, no scale action, no
        supervisor redeploy owed, every backend (prefill and decode ones
        included) reachable and healthy with zero outstanding forwards,
        every engine's queues empty and free of fault plans and crashes,
        and the SLO window drained empty — so nothing but a pending
        kernel entry can end the idleness.
        """
        if not self.fleet.spec.fast_forward:
            return False
        engines = self.engines()
        if not engines:
            return False
        fleet = self.fleet
        supervisor = fleet.supervisor
        if (fleet.inflight or fleet._pending_nodes
                or supervisor is not None and supervisor.deficit):
            return False
        if fleet.autoscaler._scaling or not fleet.slo.drained():
            return False
        for b in fleet.router_app.backends:
            if not b.healthy or b.outstanding or b.consecutive_failures:
                return False
        for engine in engines.values():
            if (engine.running or engine.waiting
                    or engine.fault_plan is not None
                    or engine.crashed is not None):
                return False
        return True

    # -- the one skip path ----------------------------------------------------

    def edge(self) -> float:
        """End of the current quiet window; ``-inf`` when there is none.

        The earliest of the next pending kernel entry that is not a
        governed tick and the autoscaler's next possible decision tick
        on its own chain.  It is worked out once, when a window opens,
        and shared by every loop until the clock reaches it, so no loop
        reads another's skipped-tick state.  With only ticks pending the
        window would be unbounded, so there is none and every loop ticks
        live.
        """
        if not self.quiet():
            self._edge = -math.inf
        elif self._edge <= self.kernel.now:
            bound = self.kernel.peek(ignore=_TICK)
            self._edge = (-math.inf if math.isinf(bound) else min(
                bound, self.fleet.autoscaler.next_decision_tick(bound)))
        return self._edge

    def next_tick(self, interval: float,
                  waits: Callable[[], list[float]] | None = None
                  ) -> tuple[TickRun, Timeout]:
        """Plan a periodic loop's wait for its next live tick.

        Returns the run of ticks skipped, for which the caller plays its
        closed-form idle tick body, and the timeout to wait on.  Tick
        times follow the loop's stepped chain from ``now``: a tick at
        ``t`` ends once the delays ``waits()`` lists have been added to
        ``t`` in order (none by default; called only when a skip is
        possible), and the next tick is ``end + interval``.  A tick is
        skipped only if the tick after it also starts strictly before
        :meth:`edge`; the loop wakes, exactly, on its last tick before
        the edge, which queues the next one as stepping does (same
        instant, same heap position), so ticks that tie with the edge's
        entry run in stepping's order — loop bodies need not commute.
        The chain is summed by :meth:`TickRun.before`, whatever the
        window's length, with stepping's own float additions.
        """
        t = self.kernel.now + interval
        edge = self.edge()
        if not t < edge:
            return NO_TICKS, self.kernel.at(t, _TICK)
        steps = (*waits(), interval) if waits is not None else (interval,)
        skipped, live = TickRun.before(t, steps, edge)
        return skipped, self.kernel.at(live, _TICK)

    def wait_tick(self, interval: float, stop: Event,
                  idle: Callable[[TickRun], None] | None = None,
                  waits: Callable[[], list[float]] | None = None):
        """Generator: wait for a periodic loop's next live tick.

        Returns False, scheduling nothing, when ``stop`` has already
        fired.  Otherwise plans the wait with :meth:`next_tick`, hands
        any skipped run of ticks to ``idle`` (the loop's closed-form
        idle body) before waiting, and returns True when the live tick,
        not ``stop``, woke the loop::

            while (yield from fleet.ff.wait_tick(interval, stop)):
                ...  # the live tick body
        """
        if stop.triggered:
            return False
        skipped, tick = self.next_tick(interval, waits)
        if skipped.count and idle is not None:
            idle(skipped)
        yield self.kernel.any_of([stop, tick])
        return not stop.triggered
