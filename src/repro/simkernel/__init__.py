"""Deterministic discrete-event simulation kernel.

A small, simpy-style kernel: simulation *processes* are Python generators
that ``yield`` waitables (:class:`Event`, :class:`Timeout`, other processes,
or combinators), or sleep by yielding a delay in simulated seconds.  The
:class:`SimKernel` owns virtual time and an event heap; running the kernel
advances time deterministically.

Example
-------
>>> from repro.simkernel import SimKernel
>>> k = SimKernel()
>>> log = []
>>> def proc(env):
...     yield 2.0
...     log.append(env.now)
>>> _ = k.spawn(proc(k))
>>> k.run()
>>> log
[2.0]
"""

from .events import AllOf, AnyOf, Callback, Event, Interrupted, Timeout
from .kernel import Process, SimKernel
from .rng import RngRegistry
from .tracing import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Callback",
    "Event",
    "Interrupted",
    "Process",
    "RngRegistry",
    "SimKernel",
    "Timeout",
    "TraceRecord",
    "Tracer",
]
