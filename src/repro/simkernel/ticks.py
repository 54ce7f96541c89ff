"""Tick chains, and :class:`TickLog`, the periodic loops' record.

A periodic loop that waits ``d1, ..., dk`` and then ``interval`` after
each tick places its next tick at ``(((t + d1) + ...) + dk) + interval``:
the float additions stepping makes, in its order.  ``np.cumsum`` is a
sequential left-to-right accumulation (only ``np.sum`` sums pairwise),
so one cumulative sum over ``[t, d1, ..., dk, interval, d1, ...]``
repeats those additions bit for bit, and every ``k + 1``-th partial sum
is a tick.  Chains are summed in blocks of at most :data:`BLOCK`
entries; each block starts from the previous block's last tick, which
is the same chain.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Generic, TypeVar

import numpy as np

#: chain entries (ticks and the delays between them) per cumulative
#: sum: at most 256 KB of float64 per block
BLOCK = 32768


def chain_blocks(first: float, steps: tuple[float, ...],
                 size: int) -> Iterator[np.ndarray]:
    """Yield the chain's ticks from ``first`` in consecutive blocks.

    A tick plus ``steps``, added in order, is the next tick.  The first
    block holds ``size`` ticks, later ones as many as :data:`BLOCK`
    allows (never fewer than one); the caller stops iterating.
    """
    k = len(steps)
    cap = max(1, BLOCK // k)
    n = max(1, min(size, cap))
    t = first
    while True:
        seq = np.empty(1 + n * k)
        seq[0] = t
        seq[1:].reshape(n, k)[:] = steps
        ticks = seq.cumsum()[::k]            # t and the n ticks after it
        yield ticks[:-1]
        t = ticks[-1]
        n = cap


def ticks_until(first: float, steps: tuple[float, ...],
                until: float) -> int:
    """Roughly how many chain ticks from ``first`` reach ``until``: a
    first-block size for :func:`chain_blocks`, which caps it."""
    return int(min(BLOCK, (until - first) / sum(steps) + 2.0))


@dataclass(frozen=True, slots=True)
class TickRun:
    """A run of ticks: ``count`` ticks from ``first`` on the chain that
    adds ``steps`` in order (a loop's waits, then its interval) from
    each tick to the next.

    One immutable value whatever the run's length: :meth:`times`
    regenerates the exact floats, and iterating yields them as Python
    floats.  ``TickRun(t)`` is the one-tick run of a live tick, which
    needs no steps.
    """

    first: float
    steps: tuple[float, ...] = ()
    count: int = 1

    @classmethod
    def before(cls, first: float, steps: tuple[float, ...],
               edge: float) -> tuple[TickRun, float]:
        """The ticks from ``first`` whose next tick is still before
        ``edge``, and the tick after them (the last one before
        ``edge``, or ``first`` when even it is not)."""
        below, live = 0, first
        for block in chain_blocks(first, steps,
                                  ticks_until(first, steps, edge)):
            n = int(block.searchsorted(edge))
            below += n
            if n:
                live = float(block[n - 1])
            if n < len(block):
                break
        return cls(first, steps, max(below - 1, 0)), live

    def times(self) -> np.ndarray:
        """The run's tick times, as stepping computes them."""
        need = self.count
        if need <= 1:                       # no steps to sum
            return np.array([self.first][:need])
        parts = []
        for block in chain_blocks(self.first, self.steps, need):
            parts.append(block[:need])
            need -= len(block)
            if need <= 0:
                break
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[float]:
        if self.count == 1:
            return iter((self.first,))
        return iter(self.times().tolist())


#: the empty run: a wait that skips nothing
NO_TICKS = TickRun(0.0, (), 0)

V = TypeVar("V")


class TickLog(list[tuple[V, TickRun]], Generic[V]):
    """A periodic loop's record: ``(value, run)`` entries in time order.

    A live tick at ``t`` appends ``(value, TickRun(t))``; a quiet window
    appends the run of ticks the loop skipped, every one of which read
    ``value``.
    """

    def expand(self) -> Iterator[tuple[V, float]]:
        """``(value, t)`` per tick, as a loop recording every tick
        would have stored it."""
        for value, run in self:
            for t in run:
                yield value, t
