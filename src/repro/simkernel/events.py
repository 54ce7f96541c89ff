"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence with an optional value or
exception.  Processes wait on events by yielding them.  Combinators
:class:`AnyOf` / :class:`AllOf` wait on groups.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from heapq import heappush
from typing import TYPE_CHECKING, Any

from ..errors import StateError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import SimKernel


class Event:
    """A one-shot occurrence in simulated time.

    Lifecycle: *pending* -> *triggered* (scheduled on the heap) ->
    *processed* (callbacks ran).  ``succeed``/``fail`` trigger the event;
    both are errors on an already-triggered event.
    """

    __slots__ = ("kernel", "callbacks", "_value", "_ok", "_scheduled", "_processed")

    def __init__(self, kernel: SimKernel) -> None:
        self.kernel = kernel
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok: bool | None = None
        self._scheduled = False
        self._processed = False

    # -- state inspection --------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._scheduled

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool | None:
        """True if succeeded, False if failed, None if still pending."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._scheduled:
            raise StateError("event value not yet available")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> Event:
        """Mark the event successful; its callbacks run at the current
        instant, after the events already queued for it."""
        if self._scheduled:
            raise StateError("event already triggered")
        self._ok = True
        self._value = value
        self._scheduled = True
        self.kernel._schedule(self)
        return self

    def fail(self, exception: BaseException) -> Event:
        """Mark the event failed; waiting processes receive ``exception``."""
        if self._scheduled:
            raise StateError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self._scheduled = True
        self.kernel._schedule(self)
        return self

    # -- internal ------------------------------------------------------------

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks or ():
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (synchronously).
        """
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)

    def detach(self, cb: Callable[["Event"], None]) -> None:
        """Unregister ``cb`` if still pending; missing callbacks are a no-op.

        Used by :meth:`Process.interrupt` to abandon a wait without the
        event later double-resuming the process.  Composite events
        override this to also release their child-event hooks.
        """
        if self.callbacks is not None:
            try:
                self.callbacks.remove(cb)
            except ValueError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self._scheduled else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, kernel: SimKernel, delay: float,
                 value: Any = None, *, at: float | None = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # The hottest constructor in a run: set the slots and queue the
        # entry directly rather than through Event.__init__ + _schedule.
        self.kernel = kernel
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._processed = False
        kernel._seq += 1
        heappush(kernel._heap, (kernel.now + delay if at is None else at,
                                kernel._seq, self))


class Sleep(Timeout):
    """A timeout that :meth:`wake` can fire early, at the current instant.

    One timer where a wait would otherwise be
    ``any_of([wake_event, timeout])``: no second event, no composite,
    no re-dispatch.  Waking queues the sleep at ``now``; its deadline
    entry stays on the heap and is a no-op when it comes up.  After the
    sleep fires, :attr:`woke` tells the two apart: True only if it fired
    before its deadline.  A wake at the deadline instant itself loses to
    the deadline entry, which was queued first.  Created via
    :meth:`SimKernel.sleep`.
    """

    __slots__ = ("deadline", "woke")

    def __init__(self, kernel: SimKernel, delay: float,
                 value: Any = None) -> None:
        super().__init__(kernel, delay, value)
        self.deadline = kernel.now + delay
        self.woke = False

    def wake(self) -> None:
        """Fire at the current instant instead of at the deadline; a
        no-op once the sleep has fired or a wake is already queued."""
        if self._processed or self.woke:
            return
        self.woke = True
        self.kernel._schedule(self)

    def _run_callbacks(self) -> None:
        if self._processed:
            return          # the other of the two heap entries
        if self.woke and self.kernel.now >= self.deadline:
            self.woke = False   # the deadline entry won the instant
        Event._run_callbacks(self)


class Callback(Timeout):
    """A timeout that invokes one function when it fires.

    Where a full process costs a generator plus per-wait Event churn, a
    ``Callback`` is one flat heap entry — ``fn(arg)`` runs when the
    clock reaches it, and ordinary ``add_callback`` waiters still work
    afterwards.  Created via :meth:`SimKernel.call_in` /
    :meth:`SimKernel.call_at`.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, kernel: SimKernel, delay: float,
                 fn: Callable[[Any], None], arg: Any = None, *,
                 at: float | None = None) -> None:
        super().__init__(kernel, delay, at=at)
        self.fn = fn
        self.arg = arg

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        self.fn(self.arg)
        for cb in callbacks or ():
            cb(self)


class Interrupted(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries the interrupter-supplied reason.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class _Condition(Event):
    """Base for AnyOf/AllOf: completes based on child event outcomes."""

    __slots__ = ("events", "_remaining")

    def __init__(self, kernel: SimKernel,
                 events: Iterable[Event]) -> None:
        super().__init__(kernel)
        self.events = tuple(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def detach(self, cb: Callable[[Event], None]) -> None:
        """Remove ``cb`` and, once nobody is waiting on this composite,
        release the ``_on_child`` hooks its children still hold.

        Without the cascade, an interrupted ``yield any_of([a, b])``
        leaves both children referencing the abandoned composite: the
        composite leaks until the children fire, and a long-lived child
        (a stop event, say) pins it for the rest of the simulation.
        """
        super().detach(cb)
        if not self._scheduled and not self.callbacks:
            for ev in self.events:
                ev.detach(self._on_child)

    def _results(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev.processed and ev.ok}


class AnyOf(_Condition):
    """Succeeds when the first child event succeeds (or fails if it failed)."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self._scheduled:
            return
        if ev.ok:
            self.succeed(self._results())
        else:
            self.fail(ev._value)


class AllOf(_Condition):
    """Succeeds when all child events have succeeded.

    Fails fast with the first child failure.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self._scheduled:
            return
        if not ev.ok:
            self.fail(ev._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._results())
