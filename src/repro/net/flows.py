"""Capacitated links and max-min fair fluid flows.

The model: each active transfer is a *flow* along a path of links.  At any
instant every flow gets its max-min fair rate; whenever the flow set changes
the network settles transferred bytes and recomputes rates.  Transfer
completion events are scheduled from the current rate and invalidated (via a
generation counter) when rates change.  Active flows are kept in start
order, which is flow-id order, so every pass over them (rate allocation,
settling, completion) runs in one deterministic order.

This reproduces the phenomena the paper describes qualitatively:
*"container registries become a bottleneck when multiple nodes
simultaneously pull the same container image"* and the S3 frontend's
16 x 25 Gbps aggregate limit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..simkernel import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..simkernel import SimKernel


class Link:
    """A unidirectional capacitated link (bytes/second)."""

    __slots__ = ("name", "capacity")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ConfigurationError(f"link {name!r} capacity must be > 0")
        self.name = name
        self.capacity = float(capacity)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} {self.capacity:.3g} B/s>"


def max_min_fair_rates(flows: Sequence["Flow"]) -> dict["Flow", float]:
    """Compute max-min fair rates for ``flows`` over their shared links.

    Classic progressive-filling: repeatedly find the most-constrained link
    (smallest fair share among its unfixed flows), fix those flows at that
    share, subtract, repeat.  Flows may carry an intrinsic ``rate_cap``
    (e.g. a disk or endpoint limit), treated as a private link.

    A lone flow gets ``min(rate_cap, tightest link)`` directly: the same
    float progressive filling reaches, without its set bookkeeping.
    """
    if len(flows) == 1:
        flow = flows[0]
        rate = min((link.capacity for link in flow.path), default=math.inf)
        cap = flow.rate_cap
        return {flow: cap if cap is not None and cap <= rate else rate}
    rates: dict[Flow, float] = {}
    unfixed = set(flows)
    if not unfixed:
        return rates

    remaining: dict[Link, float] = {}
    members: dict[Link, set[Flow]] = {}
    for flow in flows:
        for link in flow.path:
            if link not in remaining:
                remaining[link] = link.capacity
                members[link] = set()
            members[link].add(flow)

    while unfixed:
        # Fair share currently offered by each link to its unfixed flows.
        best_share = math.inf
        best_link: Link | None = None
        for link, flws in members.items():
            live = flws & unfixed
            if not live:
                continue
            share = remaining[link] / len(live)
            if share < best_share:
                best_share = share
                best_link = link
        # Flows whose rate_cap binds before any link does.  Iteration is
        # ordered by flow id everywhere below: identity-ordered sets would
        # change float accumulation order (and thus traces) run-to-run.
        capped = sorted(
            (f for f in unfixed
             if f.rate_cap is not None and f.rate_cap <= best_share),
            key=lambda f: f.id)
        if capped:
            # Fix the most-constrained capped flow(s) first.
            tightest = min(f.rate_cap for f in capped)  # type: ignore[type-var]
            for flow in [f for f in capped if f.rate_cap == tightest]:
                rates[flow] = tightest
                unfixed.discard(flow)
                for link in flow.path:
                    remaining[link] = max(0.0, remaining[link] - tightest)
            continue
        if best_link is None:
            # Remaining flows traverse no shared link and have no cap:
            # they are unconstrained (e.g. loopback); give them infinity.
            for flow in sorted(unfixed, key=lambda f: f.id):
                rates[flow] = math.inf
            break
        for flow in sorted(members[best_link] & unfixed,
                           key=lambda f: f.id):
            rates[flow] = best_share
            unfixed.discard(flow)
            for link in flow.path:
                remaining[link] = max(0.0, remaining[link] - best_share)
    return rates


class Flow:
    """An active transfer of ``nbytes`` along ``path``.

    ``done`` is an event succeeding (with the flow) at completion time.
    """

    _ids = itertools.count(1)

    def __init__(self, network: FlowNetwork, path: Sequence[Link],
                 nbytes: float, name: str = "",
                 rate_cap: float | None = None):
        if nbytes < 0:
            raise ConfigurationError("flow size must be >= 0")
        if rate_cap is not None and rate_cap <= 0:
            raise ConfigurationError("rate_cap must be > 0")
        self.id = next(Flow._ids)
        self.network = network
        self.path: tuple[Link, ...] = tuple(path)
        self.name = name or f"flow-{self.id}"
        self.total_bytes = float(nbytes)
        self.bytes_done = 0.0
        self.rate = 0.0
        self.rate_cap = rate_cap
        self.started_at = network.kernel.now
        self.finished_at: float | None = None
        self.done: Event = Event(network.kernel)
        self.cancelled = False

    @property
    def remaining(self) -> float:
        return max(0.0, self.total_bytes - self.bytes_done)

    @property
    def mean_throughput(self) -> float:
        """Average achieved throughput (bytes/s) over the flow's lifetime."""
        end = self.finished_at if self.finished_at is not None \
            else self.network.kernel.now
        elapsed = end - self.started_at
        return self.bytes_done / elapsed if elapsed > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Flow {self.name} {self.bytes_done:.3g}/"
                f"{self.total_bytes:.3g}B rate={self.rate:.3g}>")


class FlowNetwork:
    """Tracks active flows and keeps their max-min rates current."""

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        #: Active flows in start order (a dict used as an ordered set).
        self.active: dict[Flow, None] = {}
        self._last_settle = kernel.now
        self._generation = 0

    # -- public API ------------------------------------------------------------

    def start_flow(self, path: Sequence[Link], nbytes: float,
                   name: str = "", rate_cap: float | None = None) -> Flow:
        """Begin transferring ``nbytes`` along ``path``; returns the Flow.

        Zero-byte flows complete immediately.
        """
        flow = Flow(self, path, nbytes, name=name, rate_cap=rate_cap)
        if flow.total_bytes == 0:
            flow.finished_at = self.kernel.now
            flow.done.succeed(flow)
            return flow
        self._settle()
        self.active[flow] = None
        self._reallocate()
        self.kernel.trace.emit("net.flow.start", flow=flow.name,
                               nbytes=nbytes,
                               links=[link.name for link in flow.path])
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        """Abort a flow; its ``done`` event fails with TransferError."""
        from ..errors import TransferError
        if flow not in self.active:
            return
        self._settle()
        del self.active[flow]
        flow.cancelled = True
        flow.finished_at = self.kernel.now
        flow.done.fail(TransferError(
            f"flow {flow.name} cancelled", sim_time=self.kernel.now))
        self._reallocate()

    def transfer(self, path: Sequence[Link], nbytes: float, name: str = "",
                 rate_cap: float | None = None):
        """Process helper: ``yield from network.transfer(...)`` inside a proc."""
        flow = self.start_flow(path, nbytes, name=name, rate_cap=rate_cap)
        result = yield flow.done
        return result

    # -- internals ---------------------------------------------------------------

    def _ordered(self) -> list[Flow]:
        """A snapshot of the active flows in creation order.

        A flow enters ``active`` as it is created, and flow ids grow
        with creation, so insertion order is id order: no sort, and no
        order that varies with object addresses, is needed to keep the
        max-min fair tie-break and the completion order the same run to
        run.
        """
        return list(self.active)

    def _settle(self) -> None:
        """Credit bytes transferred since the last rate change."""
        now = self.kernel.now
        dt = now - self._last_settle
        if dt > 0:
            for flow in self.active:
                if math.isinf(flow.rate):
                    flow.bytes_done = flow.total_bytes
                else:
                    flow.bytes_done = min(
                        flow.total_bytes, flow.bytes_done + flow.rate * dt)
        self._last_settle = now

    def _reallocate(self) -> None:
        """Recompute rates and (re)schedule the next completion."""
        self._generation += 1       # stales the pending timer, if any
        if not self.active:
            return
        gen = self._generation
        ordered = self._ordered()
        rates = max_min_fair_rates(ordered)
        for flow, rate in rates.items():
            flow.rate = rate

        # Finish any flow that is already done (zero remaining or inf rate).
        finished = [f for f in ordered
                    if f.remaining <= self._tolerance(f)
                    or math.isinf(f.rate)]
        for flow in finished:
            self._complete(flow)
        if finished:
            # Completion changed the flow set; recurse once to reallocate.
            self._reallocate()
            return

        # Schedule a single timer at the earliest completion; it re-settles
        # and completes whatever finished.  Stale timers (older generation)
        # are ignored.
        next_eta = math.inf
        for flow in ordered:
            if flow.rate > 0:
                next_eta = min(next_eta, flow.remaining / flow.rate)
        if math.isfinite(next_eta):
            self.kernel.call_in(next_eta, self._finish_due, gen)

    @staticmethod
    def _tolerance(flow: Flow) -> float:
        # Sub-byte residue from float rounding on multi-GiB transfers.
        return max(1.0, flow.total_bytes * 1e-9)

    def _finish_due(self, gen: int) -> None:
        """The completion timer of allocation ``gen``: complete whatever
        has finished, then reallocate."""
        if gen != self._generation:
            return  # stale timer from an older allocation
        self._settle()
        finished = [f for f in self.active
                    if f.remaining <= self._tolerance(f)]
        if not finished:
            # The timer fired exactly at the earliest ETA, so the
            # argmin flow is done up to float rounding; force it.  On a
            # tie, min keeps the earliest started.
            due = min(self.active,
                      key=lambda f: (f.remaining / f.rate
                                     if f.rate > 0 else math.inf))
            finished = [due]
        for flow in finished:
            self._complete(flow)
        self._reallocate()

    def _complete(self, flow: Flow) -> None:
        flow.bytes_done = flow.total_bytes
        flow.finished_at = self.kernel.now
        del self.active[flow]
        if not flow.done.triggered:
            flow.done.succeed(flow)
        self.kernel.trace.emit("net.flow.done", flow=flow.name,
                               elapsed=flow.finished_at - flow.started_at,
                               mean_bps=flow.mean_throughput)

    # -- inspection -----------------------------------------------------------------

    def utilization(self, link: Link) -> float:
        """Current fraction of ``link`` capacity in use."""
        used = sum(f.rate for f in self.active if link in f.path
                   and not math.isinf(f.rate))
        return used / link.capacity
