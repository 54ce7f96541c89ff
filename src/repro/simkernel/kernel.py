"""The simulation kernel: virtual clock, event heap, and processes."""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from heapq import heappop, heappush
from typing import Any

from ..errors import StateError
from ..obs.context import Observability
from .events import AllOf, AnyOf, Callback, Event, Interrupted, Timeout
from .rng import RngRegistry
from .tracing import Tracer

#: What a process generator yields: an event to wait on, or a bare
#: delay in simulated seconds (``yield 2.5``).
ProcGen = Generator[Event | float, Any, Any]


class _Waker:
    """The heap entry of a process's bare-delay wait (``yield delay``).

    One per process, reused by every such wait: firing it resumes the
    generator with ``None``, as a fired :class:`Timeout` would, with no
    event, callback list or bound method built per wait.
    :meth:`detach` (an interrupt or :meth:`Process.rearm`) makes a queued
    entry inert.
    """

    __slots__ = ("proc",)
    _ok = True          # read by Process._resume as a fired wait's outcome
    _value = None       # ... and by SimKernel.peek(ignore=...)

    def __init__(self, proc: Process | None) -> None:
        self.proc = proc

    def _run_callbacks(self) -> None:
        proc = self.proc
        if proc is not None:
            proc._waiting_on = None
            proc._resume(self)

    def detach(self, _cb: Callable[[Any], None]) -> None:
        """Abandon the wait: the process gets a fresh waker and this
        one's queued entry wakes nobody."""
        proc, self.proc = self.proc, None
        if proc is not None:
            proc._waker = _Waker(proc)


#: What :meth:`SimKernel.start` resumes a new generator with: an inert
#: waker, whose class-level outcome sends ``None``.
_GO = _Waker(None)


class Process(Event):
    """A running simulation process wrapping a generator.

    A Process is itself an :class:`Event` that triggers when the generator
    returns (success, value = return value) or raises (failure).  A
    process that finishes while nothing waits on it completes in place,
    with no heap entry: a later ``yield proc`` or ``run(until=proc)``
    still finds it processed, and a failure still raises through
    ``run(until=proc)``.  Processes may be interrupted; the waiting
    process receives :class:`Interrupted`.

    A process waits by yielding an :class:`Event`, or sleeps by yielding
    a delay (a ``float`` or ``int``, not ``bool``), which queues its
    :class:`_Waker` where ``yield kernel.timeout(delay)`` would have
    queued a ``Timeout``: at ``now + delay``, in the same ``(time, seq)``
    order.  A negative or NaN delay raises ``ValueError`` at the yield.
    :meth:`rearm` moves a pending bare-delay wait to another time.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_waker")

    def __init__(self, kernel: SimKernel, generator: ProcGen,
                 name: str = "") -> None:
        super().__init__(kernel)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | _Waker | None = None
        self._waker = _Waker(self)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time.

        Interrupting a finished process is a no-op (mirrors real job-kill
        races: the kill may arrive after completion).
        """
        if self.triggered:
            return

        def deliver(tick: Event) -> None:
            if self.triggered:
                return
            # Detach from whatever we are waiting on *now* — the process
            # may have resumed and re-waited between interrupt() and this
            # delivery tick, so the wait target must be re-read here, not
            # captured at interrupt time.  Event.detach also releases a
            # composite's child hooks, so an interrupted
            # ``yield any_of([...])`` cannot double-resume us via a child
            # that fires later.
            target = self._waiting_on
            if target is not None:
                target.detach(self._resume)
            self._resume(tick)

        tick = Event(self.kernel)
        tick.fail(Interrupted(cause))
        tick.add_callback(deliver)

    def rearm(self, delay: float) -> None:
        """Move a pending bare-delay wait to ``now + delay``.

        The queued entry goes inert, as on an interrupt, and a fresh
        waker is queued in its place, so the generator resumes once, at
        the new time, in the ``(time, seq)`` order of a wait yielded
        now.  A no-op unless the process waits on a bare delay (before
        its first step, once it fired, or while it waits on an event).
        A negative or NaN delay raises ``ValueError`` and queues nothing.
        """
        if not delay >= 0:      # one test that also refuses NaN
            raise ValueError(f"negative or NaN delay: {delay!r}")
        waker = self._waker
        if self._waiting_on is not waker:
            return
        waker.detach(self._resume)      # self._waker is now a fresh one
        kernel = self.kernel
        self._waiting_on = fresh = self._waker
        kernel._seq += 1
        heappush(kernel._heap, (kernel.now + delay, kernel._seq, fresh))

    # -- generator driving ---------------------------------------------------

    def _resume(self, ev: Event | _Waker) -> None:
        """Send ``ev``'s value into the generator (or throw its
        exception), then wait on whatever it yields next."""
        try:
            if ev._ok:
                nxt = self.generator.send(ev._value)
            else:
                nxt = self.generator.throw(ev._value)
        except StopIteration as stop:
            self._complete(True, stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._complete(False, exc)
            return
        delay: float
        if type(nxt) is float or type(nxt) is int:
            delay = nxt
        elif isinstance(nxt, Event):
            self._waiting_on = nxt
            callbacks = nxt.callbacks       # Event.add_callback, inlined
            if callbacks is None:
                self._resume(nxt)
            else:
                callbacks.append(self._resume)
            return
        elif isinstance(nxt, (float, int)) and not isinstance(nxt, bool):
            delay = nxt         # a subclass, such as numpy's float64
        else:
            # Programming error inside the process: fail loudly.
            self.generator.close()
            self._complete(False, TypeError(
                f"process {self.name!r} yielded non-event {nxt!r}"))
            return
        if delay >= 0:          # one test that also refuses NaN
            kernel = self.kernel
            self._waiting_on = waker = self._waker
            kernel._seq += 1
            heappush(kernel._heap, (kernel.now + delay, kernel._seq, waker))
            return
        bad = Event(self.kernel)        # an outcome only: never queued
        bad._ok = False
        bad._value = ValueError(f"negative or NaN delay: {delay!r}")
        self._resume(bad)

    def _complete(self, ok: bool, value: Any) -> None:
        self._waiting_on = None
        # Break the process <-> waker cycle, so that a finished process
        # is freed by reference counting, not left to the cyclic GC.
        self._waker.proc = None
        self._ok = ok
        self._value = value
        self._scheduled = True
        if self.callbacks:
            self.kernel._schedule(self)
        else:
            # Nobody waits: finish in place rather than queue a heap
            # entry whose dispatch would run no callbacks.
            self._processed = True
            self.callbacks = None


class SimKernel:
    """Deterministic discrete-event simulator.

    The kernel owns the virtual clock (:attr:`now`, seconds), the pending
    event heap, named RNG streams (:attr:`rng`), a trace recorder
    (:attr:`trace`), and the observability surface (:attr:`obs` — metrics
    registry + span recorder; see :mod:`repro.obs`).  All simulation
    components hold a reference to their kernel, conventionally named
    ``env``.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event | _Waker]] = []
        self._seq = 0
        self.rng = RngRegistry(seed)
        self.trace = Tracer(self)
        self.obs = Observability(self)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event) -> None:
        """Queue ``event`` at the current instant."""
        self._seq += 1
        heappush(self._heap, (self.now, self._seq, event))

    def _schedule_at(self, event: Event, when: float) -> None:
        """Queue ``event`` at exactly ``when`` (callers clamp to now)."""
        self._seq += 1
        heappush(self._heap, (when, self._seq, event))

    # -- public factory helpers ----------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def at(self, when: float, value: Any = None) -> Timeout:
        """A timeout firing at *absolute* simulated time ``when``.

        Exact: the event fires at ``when`` itself, not at
        ``now + (when - now)``, which can land one ulp away — so a loop
        that computed its tick times by repeated addition wakes on them
        bit for bit.  Times already in the past fire immediately —
        schedulers (e.g. the chaos orchestrator) can plan injections
        before knowing how long bring-up takes.  A NaN ``when`` raises
        ``ValueError`` (``max`` keeps it, and ``Timeout`` refuses the NaN
        delay it makes).
        """
        when = max(when, self.now)
        return Timeout(self, when - self.now, value, at=when)

    def spawn(self, generator: ProcGen, name: str = "") -> Process:
        """Start a new process from a generator.

        Its first step runs from a boot event queued at the current
        instant, after the events already queued for it.
        """
        proc = Process(self, generator, name=name)
        boot = Event(self)
        boot.succeed()
        boot.add_callback(proc._resume)
        return proc

    def start(self, generator: ProcGen, name: str = "") -> Process:
        """Start a process inline: its first step runs now, inside the
        caller, with no boot event.

        For fire-and-forget work whose first step need not wait behind
        the current instant's queue (the fleet's request workers).  A
        generator that finishes in that first step returns a process
        that is already processed.
        """
        proc = Process(self, generator, name=name)
        proc._resume(_GO)
        return proc

    def call_in(self, delay: float, fn: Callable[[Any], None],
                arg: Any = None) -> Callback:
        """Schedule ``fn(arg)`` after ``delay`` seconds of simulated time.

        The flat-callback counterpart to spawning a process: one heap
        entry, no generator machinery.
        """
        return Callback(self, delay, fn, arg)

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any = None) -> Callback:
        """Schedule ``fn(arg)`` at exactly ``when`` (clamped to now; a
        NaN ``when`` raises ``ValueError``, as in :meth:`at`)."""
        when = max(when, self.now)
        return Callback(self, when - self.now, fn, arg, at=when)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution -------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event."""
        try:
            t, _seq, event = heappop(self._heap)
        except IndexError:
            raise StateError("no more events") from None
        if t < self.now:  # pragma: no cover - defensive
            raise StateError(f"time went backwards: {t} < {self.now}")
        self.now = t
        event._run_callbacks()

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        * ``until=None``: run until the heap is empty.
        * ``until=<float>``: run until virtual time reaches the given time
          (events at exactly ``until`` are processed).
        * ``until=<Event>``: run until the event is processed; returns its
          value, or raises its exception if it failed.
        """
        if isinstance(until, Event):
            target = until
            # The slot, not the ``processed`` property: this is read
            # once per kernel step.
            while not target._processed:
                if not self._heap:
                    raise StateError(
                        "simulation ran out of events before target event fired")
                self.step()
            if target.ok:
                return target._value
            raise target._value
        if until is not None:
            self.advance_to(float(until))
            return None
        while self._heap:
            self.step()
        return None

    def advance_to(self, horizon: float) -> None:
        """Run to ``horizon``: process every event at or before it
        (including events scheduled *at* the horizon by horizon-time
        callbacks), then set ``now = horizon``.

        This is what ``run(until=<float>)`` does.  After it returns,
        ``peek()`` is strictly greater than ``now`` (or +inf), so the
        ``peek()``/``now`` invariant survives the final clock assignment.
        """
        if horizon < self.now:
            raise ValueError(
                f"until={horizon} is in the past (now={self.now})")
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            self.step()
        self.now = horizon

    def peek(self, ignore: Any = None) -> float:
        """Time of the next pending event, or +inf if none.

        With ``ignore``, entries whose event value *is* that object are
        passed over.  A stale entry still counts: the inert waker that an
        interrupt or :meth:`Process.rearm` leaves queued wakes nobody when
        it comes up, but it bounds the time, which is so never later than
        the next event that can change state.
        """
        heap = self._heap
        if ignore is None:
            return heap[0][0] if heap else float("inf")
        return min((t for t, _seq, event in heap
                    if event._value is not ignore), default=float("inf"))
