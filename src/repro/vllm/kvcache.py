"""Paged KV-cache block manager (PagedAttention's bookkeeping half).

vLLM's core idea — virtual-memory-style paging of the KV cache — shows up
here as fixed-size token blocks allocated per sequence, enabling the
scheduler to admit, grow, free, and preempt sequences without
fragmentation.  Invariants (no leaks, no double frees, capacity respected)
are property-tested.

With ``prefix_caching`` enabled the manager also keeps a cache of full
blocks, mirroring vLLM's automatic prefix caching: a finished sequence
registers its context blocks under a prefix key, a later allocation with
the same key reuses the longest cached block chain (ref-counted, shared,
never copied), and blocks nobody references stay resident in an LRU
until memory pressure evicts them.  Multi-turn conversations are the
payoff: turn *k+1*'s prompt is turn *k*'s full context plus the new user
text, so everything but the tail prefills for free.  Because synthetic
workloads carry no token contents, block identity is ``(prefix key,
block index)`` — exact for append-only per-session token streams, which
is the only sharing the workload generator produces.  The cache keeps
that state per chain, never per block (index runs, holder lengths and
run-length LRU segments), so a lookup is O(1) and allocate / free cost
O(segments of one key) however long a conversation grows.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, OrderedDict
from dataclasses import dataclass
from operator import itemgetter

from ..errors import CapacityError, ConfigurationError, StateError

BLOCK_SIZE = 16  # tokens per block, vLLM's default


def blocks_needed(n_tokens: int, block_size: int = BLOCK_SIZE) -> int:
    if n_tokens < 0:
        raise ConfigurationError("negative token count")
    return -(-n_tokens // block_size) if n_tokens else 0


def block_hash(prefix_key: str, index: int) -> str:
    """Content identity of one full block of a prefix-keyed token stream."""
    return f"{prefix_key}/{index}"


@dataclass(eq=False, slots=True)
class _Segment:
    """Zero-ref blocks ``hi-1, hi-2, .., lo`` of ``key``, in LRU order."""

    key: str
    lo: int
    hi: int


class BlockManager:
    """Allocates KV blocks to sequence ids, optionally sharing prefixes.

    Block accounting with prefix caching on::

        total_blocks == free_blocks
                        + sum(private blocks per sequence)
                        + resident cached blocks   (each counted once,
                                                    however many refs)

    Cached blocks with a zero refcount live in an LRU; they are evicted
    (becoming free blocks) only under memory pressure, so a warm cache
    costs nothing until the space is actually needed.

    A sequence holds refs on a chain *prefix*, so a block's refcount
    (holders of its key longer than its index) never rises with the
    index: a key's zero-ref blocks are its resident blocks at or above
    the longest holder.  Eviction can still leave gaps in a chain (two
    holders registering interleaved ranges, or a finish registered
    under another key), hence resident *runs*, not one length.
    """

    def __init__(self, capacity_tokens: int, block_size: int = BLOCK_SIZE,
                 prefix_caching: bool = False):
        if capacity_tokens <= 0:
            raise ConfigurationError("KV capacity must be positive")
        if block_size < 1:
            raise ConfigurationError("block size must be >= 1")
        self.block_size = block_size
        self.prefix_caching = bool(prefix_caching)
        self.total_blocks = capacity_tokens // block_size
        self.free_blocks = self.total_blocks
        self._held: dict[int, int] = {}    # seq id -> private blocks
        self._tokens: dict[int, int] = {}  # seq id -> logical tokens
        # seq id -> (key, h): a ref on each cached block (key, 0..h-1).
        self._shared: dict[int, tuple[str, int]] = {}
        # key -> multiset of holder lengths, and the largest of them.
        self._holders: dict[str, Counter[int]] = {}
        self._top: dict[str, int] = {}
        # key -> sorted, disjoint, non-adjacent [lo, hi) resident runs.
        self._runs: dict[str, list[list[int]]] = {}
        self._resident = 0
        # The LRU as run-length segments, oldest first, indexed by key.
        self._lru: OrderedDict[_Segment, None] = OrderedDict()
        self._segments: dict[str, dict[_Segment, None]] = {}
        self._evictable = 0
        # Telemetry (engine /metrics and the router's /router/cache).
        self.cache_hit_blocks = 0
        self.cache_miss_blocks = 0
        self.cache_evictions = 0
        self.cached_tokens_total = 0

    # -- queries ------------------------------------------------------------------

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self.free_blocks

    @property
    def resident_cached_blocks(self) -> int:
        """Blocks currently in the prefix cache (referenced or LRU)."""
        return self._resident

    @property
    def evictable_blocks(self) -> int:
        """Cached blocks nobody references (reclaimable on pressure)."""
        return self._evictable

    def holds(self, seq_id: int) -> bool:
        return seq_id in self._held

    def tokens_of(self, seq_id: int) -> int:
        return self._tokens.get(seq_id, 0)

    def _lookup(self, prefix_key: str | None,
                n_tokens: int) -> tuple[int, int]:
        """``(hit blocks, evictable blocks once the hit holds them)``.

        The hit is the chain resident from block 0, capped at
        ``(n_tokens - 1) // block_size`` so at least one token is always
        computed (vLLM's full-hit rule: the last token's logits must be
        produced by a real forward pass).
        """
        if not self.prefix_caching or not prefix_key:
            return 0, self._evictable
        runs = self._runs.get(prefix_key)
        if not runs or runs[0][0]:
            return 0, self._evictable
        hit = max(0, min(runs[0][1], (n_tokens - 1) // self.block_size))
        return hit, self._evictable - max(
            0, hit - self._top.get(prefix_key, 0))

    def can_allocate(self, n_tokens: int,
                     prefix_key: str | None = None) -> bool:
        """Could :meth:`allocate` succeed right now?

        Counts cached-prefix hits (which need no new blocks) and
        zero-ref cached blocks (evictable on demand) — the *exact*
        predicate :meth:`allocate` enforces, so admission decisions and
        the engine's coalescing planner can never disagree with it.
        """
        hit, evictable = self._lookup(prefix_key, n_tokens)
        need = blocks_needed(n_tokens, self.block_size) - hit
        return need <= self.free_blocks + evictable

    def can_append(self, seq_id: int) -> bool:
        """Would appending one token to ``seq_id`` need a new block, and
        if so can one be found (free, or evicted from the LRU)?"""
        tokens = self._tokens[seq_id]
        if tokens % self.block_size != 0:
            return True  # room in the current block
        return self.free_blocks >= 1 or self._evictable > 0

    # -- mutations ------------------------------------------------------------------

    def allocate(self, seq_id: int, n_tokens: int,
                 prefix_key: str | None = None) -> int:
        """Allocate blocks for a sequence's prompt; returns cached tokens.

        With a ``prefix_key``, the longest chain of cached full blocks
        is shared (ref-counted) instead of allocated, and the return
        value is how many prompt tokens those shared blocks cover — the
        engine skips prefill compute for exactly that many tokens.
        Raises without side effects when capacity is insufficient even
        after evicting every unreferenced cached block.
        """
        if seq_id in self._held:
            raise StateError(f"sequence {seq_id} already has blocks")
        hit, evictable = self._lookup(prefix_key, n_tokens)
        need = blocks_needed(n_tokens, self.block_size) - hit
        if need > self.free_blocks + evictable:
            raise CapacityError(
                f"need {need} blocks, {self.free_blocks} free "
                f"+ {evictable} evictable")
        if hit and prefix_key:   # take refs first: hits are not evictable
            self._hold(prefix_key, hit)
            self._shared[seq_id] = (prefix_key, hit)
        if need > self.free_blocks:
            self._evict(need - self.free_blocks)
        self.free_blocks -= need
        self._held[seq_id] = need
        self._tokens[seq_id] = n_tokens
        if self.prefix_caching and prefix_key:
            full = max(0, (n_tokens - 1) // self.block_size)
            self.cache_hit_blocks += hit
            self.cache_miss_blocks += full - hit
            self.cached_tokens_total += hit * self.block_size
        return hit * self.block_size

    def append_token(self, seq_id: int) -> None:
        """Grow a sequence by one generated token."""
        if seq_id not in self._held:
            raise StateError(f"sequence {seq_id} has no blocks")
        tokens = self._tokens[seq_id]
        if tokens % self.block_size == 0:
            if self.free_blocks < 1 and self._evictable:
                self._evict(1)
            if self.free_blocks < 1:
                raise CapacityError("KV cache exhausted")
            self.free_blocks -= 1
            self._held[seq_id] += 1
        self._tokens[seq_id] = tokens + 1

    def append_tokens(self, seq_id: int, n: int) -> None:
        """Grow a sequence by ``n`` tokens in one bookkeeping update.

        Equivalent to ``n`` calls of :meth:`append_token` (the engine's
        coalesced fast-forward uses it after proving capacity); raises
        without side effects when the blocks are not available.
        """
        if n < 0:
            raise ConfigurationError("negative token count")
        if seq_id not in self._held:
            raise StateError(f"sequence {seq_id} has no blocks")
        tokens = self._tokens[seq_id]
        # New blocks consumed = multiples of block_size crossed by
        # appends tokens+1 .. tokens+n (a crossing happens on the append
        # made while the current block is exactly full); floor division
        # keeps the formula right at tokens == 0.
        need = ((tokens + n - 1) // self.block_size
                - (tokens - 1) // self.block_size)
        if need > self.free_blocks + self._evictable:
            raise CapacityError(
                f"need {need} blocks, {self.free_blocks} free "
                f"+ {self._evictable} evictable")
        if need > self.free_blocks:
            self._evict(need - self.free_blocks)
        self.free_blocks -= need
        self._held[seq_id] += need
        self._tokens[seq_id] = tokens + n

    def free(self, seq_id: int, register_key: str | None = None) -> None:
        """Release a sequence's blocks (and its cached-prefix refs).

        With ``register_key`` (and prefix caching on), the sequence's
        *full* context blocks beyond its shared prefix are handed to the
        cache instead of freed: they become zero-ref residents, ready
        for the conversation's next turn.  The partial tail block is
        always freed — only full blocks have stable content identity.

        Within a chain, blocks enter the LRU in *descending* index
        order (tail oldest), so memory pressure trims chains from the
        tail like vLLM's leaf-first eviction: the surviving head stays
        a usable contiguous prefix instead of orphaning resident blocks
        behind an evicted block 0.
        """
        if seq_id not in self._held:
            raise StateError(f"sequence {seq_id} has no blocks")
        tokens = self._tokens.pop(seq_id)
        private = self._held.pop(seq_id)
        key, held = self._shared.pop(seq_id, ("", 0))
        if self.prefix_caching and register_key:
            private -= self._register(register_key, held,
                                      tokens // self.block_size)
        self.free_blocks += private
        if held:
            self._release(key, held)

    def drop_cache(self) -> int:
        """Evict every unreferenced cached block; returns blocks freed."""
        dropped = self._evictable
        self._evict(dropped)
        return dropped

    # -- chain bookkeeping ----------------------------------------------------------

    def _hold(self, key: str, h: int) -> None:
        """Take a ref on blocks ``(key, 0..h-1)``; the zero-ref ones,
        ``[top, h)``, leave the LRU.  That range is the low end of every
        segment it touches (a key's segments all start at or above
        ``top``), so a hit trims segments and never splits one."""
        top = self._top.get(key, 0)
        if h > top:
            self._evictable -= h - top
            for seg in [s for s in self._segments[key] if s.lo < h]:
                if seg.hi <= h:
                    self._unlink(seg)
                else:
                    seg.lo = h
            self._top[key] = h
        holders = self._holders.get(key)
        if holders is None:
            holders = self._holders[key] = Counter()
        holders[h] += 1

    def _release(self, key: str, h: int) -> None:
        """Drop one holder of ``(key, 0..h-1)``; blocks left unheld enter
        the LRU tail-first at the MRU end."""
        holders = self._holders[key]
        holders[h] -= 1
        if holders[h]:
            return
        del holders[h]
        top = self._top[key]
        if h < top:
            return
        if holders:
            self._top[key] = new_top = max(holders)
        else:
            new_top = 0
            del self._holders[key], self._top[key]
        self._push(key, new_top, top)

    def _register(self, key: str, start: int, stop: int) -> int:
        """Make absent blocks ``(key, start..stop-1)`` zero-ref residents,
        entering the LRU in descending index order; returns how many."""
        runs = self._runs.get(key, [])
        gaps: list[list[int]] = []           # absent ranges, ascending
        lo = start
        for r_lo, r_hi in runs + [[stop, stop]]:
            if lo >= stop:
                break
            if r_lo > lo:
                gaps.append([lo, min(r_lo, stop)])
            lo = max(lo, r_hi)
        if not gaps:
            return 0
        for lo, hi in reversed(gaps):
            self._push(key, lo, hi)
        added = sum(hi - lo for lo, hi in gaps)
        merged: list[list[int]] = []
        for run in sorted(runs + gaps):
            if merged and merged[-1][1] == run[0]:
                merged[-1][1] = run[1]
            else:
                merged.append(run)
        self._runs[key] = merged
        self._resident += added
        return added

    def _push(self, key: str, lo: int, hi: int) -> None:
        """Append zero-ref blocks ``hi-1 .. lo`` of ``key`` at the MRU
        end, extending the newest segment when they continue it."""
        self._evictable += hi - lo
        if self._lru:
            tail = next(reversed(self._lru))
            if tail.key == key and tail.lo == hi:
                tail.lo = lo
                return
        seg = _Segment(key, lo, hi)
        self._lru[seg] = None
        self._segments.setdefault(key, {})[seg] = None

    def _unlink(self, seg: _Segment) -> None:
        del self._lru[seg]
        segments = self._segments[seg.key]
        del segments[seg]
        if not segments:
            del self._segments[seg.key]

    def _evict(self, n: int) -> None:
        """Free the ``n`` least-recently-used zero-ref blocks: trim the
        oldest segments from their high (oldest) end."""
        self._evictable -= n
        self._resident -= n
        self.free_blocks += n
        self.cache_evictions += n
        while n:
            seg = next(iter(self._lru))
            m = min(n, seg.hi - seg.lo)
            seg.hi -= m
            n -= m
            runs = self._runs[seg.key]
            i = bisect_right(runs, seg.hi, key=itemgetter(0)) - 1
            r_lo, r_hi = runs[i]    # the one run holding [seg.hi, +m)
            runs[i:i + 1] = [r for r in ([r_lo, seg.hi], [seg.hi + m, r_hi])
                             if r[0] < r[1]]
            if not runs:
                del self._runs[seg.key]
            if seg.lo == seg.hi:
                self._unlink(seg)

    # -- telemetry ----------------------------------------------------------------

    def cache_stats(self) -> dict:
        """Prefix-cache counters (engine /metrics, router /router/cache)."""
        lookups = self.cache_hit_blocks + self.cache_miss_blocks
        return {
            "enabled": self.prefix_caching,
            "hit_blocks": self.cache_hit_blocks,
            "miss_blocks": self.cache_miss_blocks,
            "hit_rate": round(self.cache_hit_blocks / lookups, 4)
            if lookups else 0.0,
            "resident_blocks": self.resident_cached_blocks,
            "evictable_blocks": self.evictable_blocks,
            "evictions": self.cache_evictions,
            "cached_tokens_total": self.cached_tokens_total,
        }

    # -- invariant check (used by property tests) --------------------------------------

    def check_invariants(self) -> None:
        """Full per-block accounting audit; raises AssertionError on any
        leak, double free, or refcount drift.  Reused by the hypothesis
        suites and the engine's kv-counter audits."""
        resident = {(key, i) for key, runs in self._runs.items()
                    for lo, hi in runs for i in range(lo, hi)}
        for key, runs in self._runs.items():
            ends = [-1] + [end for run in runs for end in run]
            assert runs and all(a < b for a, b in zip(ends, ends[1:])), \
                f"runs of {key} not sorted, disjoint and non-adjacent"
        assert len(resident) == self._resident, "resident count drift"
        private = sum(self._held.values())
        assert private + self.free_blocks + len(resident) \
            == self.total_blocks, "block accounting leak"
        assert 0 <= self.free_blocks <= self.total_blocks, \
            "free-block count out of range"
        refs: Counter[tuple[str, int]] = Counter()
        holders: dict[str, Counter[int]] = {}
        for key, h in self._shared.values():
            assert h > 0, f"empty shared prefix of {key}"
            refs.update((key, i) for i in range(h))
            holders.setdefault(key, Counter())[h] += 1
        assert holders == self._holders, "holder multiset drift"
        assert self._top == {key: max(c) for key, c in holders.items()}, \
            "longest-holder drift"
        assert set(refs) <= resident, "dangling shared ref"
        lru = [(seg.key, i) for seg in self._lru
               for i in range(seg.hi - 1, seg.lo - 1, -1)]
        assert all(seg.lo < seg.hi for seg in self._lru), "empty segment"
        assert len(set(lru)) == len(lru) == self._evictable, \
            "LRU duplicates or count drift"
        assert set(lru) == resident - set(refs), "LRU membership wrong"
        by_key: dict[str, dict[_Segment, None]] = {}
        for seg in self._lru:
            by_key.setdefault(seg.key, {})[seg] = None
        assert by_key == self._segments, "segment index drift"
        for seq_id, blocks in self._held.items():
            shared = self._shared.get(seq_id, ("", 0))[1]
            assert blocks + shared == blocks_needed(
                self._tokens[seq_id], self.block_size), \
                f"sequence {seq_id} block count drifted"
        assert set(self._shared) <= set(self._held), \
            "shared refs for unknown sequence"
