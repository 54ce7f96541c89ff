"""Differential oracle for the run-length prefix cache.

``BlockManager`` keeps prefix-cache state per chain: holder lengths,
resident index runs and run-length LRU segments.  The frozen reference
below is the per-block manager it replaced, verbatim except for the
zero-token clamp on ``cache_miss_blocks``: one string key, refcount and
LRU entry per cached block.  Hypothesis drives both through the same
interleaved allocate / append / finish / abort / drop / query sequences,
and after every operation they must agree on the return value or
exception type, ``free_blocks``, ``cache_stats()``, the per-block
refcount map and the exact LRU order.
"""

from __future__ import annotations

from collections import Counter, OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, ConfigurationError, StateError
from repro.vllm.kvcache import BLOCK_SIZE, BlockManager, block_hash, blocks_needed


def expand(bm: BlockManager) -> tuple[dict[str, int], list[str]]:
    """Per-block view of a run-length manager: ``({block hash:
    refcount}, [zero-ref block hashes, oldest first])`` — the shape of
    the reference manager's ``_refs`` and ``_lru``."""
    holders = Counter(bm._shared.values())
    refs = {}
    for key, runs in bm._runs.items():
        for lo, hi in runs:
            for i in range(lo, hi):
                refs[block_hash(key, i)] = sum(
                    n for (k, h), n in holders.items() if k == key and h > i)
    lru = [block_hash(seg.key, i) for seg in bm._lru
           for i in range(seg.hi - 1, seg.lo - 1, -1)]
    return refs, lru


class _OracleBlockManager:
    """Allocates KV blocks to sequence ids, optionally sharing prefixes.

    Block accounting with prefix caching on::

        total_blocks == free_blocks
                        + sum(private blocks per sequence)
                        + resident cached blocks   (each counted once,
                                                    however many refs)

    Cached blocks with a zero refcount live in an LRU; they are evicted
    (becoming free blocks) only under memory pressure, so a warm cache
    costs nothing until the space is actually needed.
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
        # seq id -> cached block hashes this sequence holds a ref on
        # (always a prefix of the sequence's block list, in index order).
        self._shared: dict[int, tuple[str, ...]] = {}
        # block hash -> refcount; refcount-0 entries are also in _lru.
        self._refs: dict[str, int] = {}
        self._lru: OrderedDict[str, None] = OrderedDict()
        # Cache-content epoch (bumped on register/evict, the only events
        # that change _refs *membership*) + a one-entry memo for the
        # prefix-hit walk: admission asks the same (key, tokens)
        # question up to three times per boundary (_plan_jump, _admit,
        # allocate), and a warm long-context chain is hundreds of
        # blocks.
        self._content_epoch = 0
        self._hits_memo: tuple | None = None
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
        return len(self._refs)

    @property
    def evictable_blocks(self) -> int:
        """Cached blocks nobody references (reclaimable on pressure)."""
        return len(self._lru)

    def holds(self, seq_id: int) -> bool:
        return seq_id in self._held

    def tokens_of(self, seq_id: int) -> int:
        return self._tokens.get(seq_id, 0)

    def _prefix_hits(self, prefix_key: str | None,
                     n_tokens: int) -> list[str]:
        """Longest cached block chain usable by an ``n_tokens`` prompt.

        Capped at ``(n_tokens - 1) // block_size`` so at least one token
        is always computed (vLLM's full-hit rule: the last token's
        logits must be produced by a real forward pass).
        """
        if not self.prefix_caching or not prefix_key:
            return []
        memo = self._hits_memo
        if memo is not None and memo[0] == prefix_key \
                and memo[1] == n_tokens and memo[2] == self._content_epoch:
            return memo[3]
        hits: list[str] = []
        for i in range((n_tokens - 1) // self.block_size):
            h = block_hash(prefix_key, i)
            if h not in self._refs:
                break
            hits.append(h)
        self._hits_memo = (prefix_key, n_tokens, self._content_epoch, hits)
        return hits

    def can_allocate(self, n_tokens: int,
                     prefix_key: str | None = None) -> bool:
        """Could :meth:`allocate` succeed right now?

        Counts cached-prefix hits (which need no new blocks) and
        zero-ref cached blocks (evictable on demand) — the *exact*
        predicate :meth:`allocate` enforces, so admission decisions and
        the engine's coalescing planner can never disagree with it.
        """
        hits = self._prefix_hits(prefix_key, n_tokens)
        need = blocks_needed(n_tokens, self.block_size) - len(hits)
        evictable = len(self._lru) - sum(
            1 for h in hits if self._refs.get(h) == 0)
        return need <= self.free_blocks + evictable

    def can_append(self, seq_id: int) -> bool:
        """Would appending one token to ``seq_id`` need a new block, and
        if so can one be found (free, or evicted from the LRU)?"""
        tokens = self._tokens[seq_id]
        if tokens % self.block_size != 0:
            return True  # room in the current block
        return self.free_blocks >= 1 or bool(self._lru)

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
        hits = self._prefix_hits(prefix_key, n_tokens)
        need = blocks_needed(n_tokens, self.block_size) - len(hits)
        evictable = len(self._lru) - sum(
            1 for h in hits if self._refs.get(h) == 0)
        if need > self.free_blocks + evictable:
            raise CapacityError(
                f"need {need} blocks, {self.free_blocks} free "
                f"+ {evictable} evictable")
        for h in hits:           # take refs first: hits are not evictable
            if self._refs[h] == 0:
                del self._lru[h]
            self._refs[h] += 1
        while need > self.free_blocks:
            self._evict_one()
        self.free_blocks -= need
        self._held[seq_id] = need
        self._tokens[seq_id] = n_tokens
        if hits:
            self._shared[seq_id] = tuple(hits)
        if self.prefix_caching and prefix_key:
            full = max(0, (n_tokens - 1) // self.block_size)
            self.cache_hit_blocks += len(hits)
            self.cache_miss_blocks += full - len(hits)
            self.cached_tokens_total += len(hits) * self.block_size
        return len(hits) * self.block_size

    def append_token(self, seq_id: int) -> None:
        """Grow a sequence by one generated token."""
        if seq_id not in self._held:
            raise StateError(f"sequence {seq_id} has no blocks")
        tokens = self._tokens[seq_id]
        if tokens % self.block_size == 0:
            if self.free_blocks < 1 and self._lru:
                self._evict_one()
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
        if need > self.free_blocks + len(self._lru):
            raise CapacityError(
                f"need {need} blocks, {self.free_blocks} free "
                f"+ {len(self._lru)} evictable")
        while need > self.free_blocks:
            self._evict_one()
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
        shared = self._shared.pop(seq_id, ())
        if self.prefix_caching and register_key:
            registered = False
            for i in reversed(range(len(shared), tokens // self.block_size)):
                h = block_hash(register_key, i)
                if h not in self._refs:
                    self._refs[h] = 0
                    self._lru[h] = None        # MRU end
                    private -= 1               # stays resident, not freed
                    registered = True
            if registered:
                self._content_epoch += 1
        self.free_blocks += private
        for h in reversed(shared):
            self._release(h)

    def drop_cache(self) -> int:
        """Evict every unreferenced cached block; returns blocks freed."""
        dropped = 0
        while self._lru:
            self._evict_one()
            dropped += 1
        return dropped

    def _release(self, h: str) -> None:
        count = self._refs[h] - 1
        self._refs[h] = count
        if count == 0:
            self._lru[h] = None                # MRU end (just used)

    def _evict_one(self) -> None:
        h, _ = self._lru.popitem(last=False)   # LRU end
        del self._refs[h]
        self.free_blocks += 1
        self.cache_evictions += 1
        self._content_epoch += 1

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
        """Full accounting audit; raises AssertionError on any leak,
        double free, or refcount drift.  Reused by the hypothesis suites
        and the engine's kv-counter audits."""
        private = sum(self._held.values())
        assert private + self.free_blocks + len(self._refs) \
            == self.total_blocks, "block accounting leak"
        assert 0 <= self.free_blocks <= self.total_blocks, \
            "free-block count out of range"
        held_refs = Counter(h for hashes in self._shared.values()
                            for h in hashes)
        for h, count in self._refs.items():
            assert count >= 0, f"negative refcount on {h}"
            assert count == held_refs.get(h, 0), \
                f"refcount drift on {h}: {count} != {held_refs.get(h, 0)}"
            assert (count == 0) == (h in self._lru), \
                f"LRU membership wrong for {h}"
        for h in held_refs:
            assert h in self._refs, f"dangling shared ref {h}"
        for seq_id, blocks in self._held.items():
            shared = len(self._shared.get(seq_id, ()))
            assert blocks + shared == blocks_needed(
                self._tokens[seq_id], self.block_size), \
                f"sequence {seq_id} block count drifted"
        assert set(self._shared) <= set(self._held), \
            "shared refs for unknown sequence"


# -- the differential harness ----------------------------------------------------


def _outcome(call, *args):
    try:
        return call(*args)
    except (CapacityError, ConfigurationError, StateError, KeyError) as exc:
        return type(exc)                # the two must fail the same way


def _apply(bm, op, seq, tokens, key, register):
    if op == "alloc":
        return _outcome(bm.allocate, seq, tokens)
    if op == "alloc_keyed":
        return _outcome(bm.allocate, seq, tokens, key)
    if op == "append":
        return _outcome(bm.append_token, seq)
    if op == "bulk":
        return _outcome(bm.append_tokens, seq, tokens)
    if op == "finish":
        return _outcome(bm.free, seq, register)
    if op == "abort":
        return _outcome(bm.free, seq)
    if op == "drop":
        return _outcome(bm.drop_cache)
    if op == "can_allocate":
        return _outcome(bm.can_allocate, tokens, key)
    return _outcome(bm.can_append, seq)


def _assert_same(new, old):
    refs, lru = expand(new)
    assert refs == old._refs
    assert lru == list(old._lru)
    assert new.free_blocks == old.free_blocks
    assert new.cache_stats() == old.cache_stats()
    assert new._held == old._held and new._tokens == old._tokens
    new.check_invariants()
    old.check_invariants()


def play(ops, capacity_blocks=40, n_keys=3, block_size=BLOCK_SIZE):
    """Drive both managers through ``ops`` — ``(op, seq, tokens, key
    index, register choice)`` — comparing them after every step."""
    new = BlockManager(capacity_blocks * block_size, block_size,
                       prefix_caching=True)
    old = _OracleBlockManager(capacity_blocks * block_size, block_size,
                              prefix_caching=True)
    keys = [f"k{i}" for i in range(n_keys)]
    alloc_key = {}
    for op, seq, tokens, key_idx, choice in ops:
        key = keys[key_idx % n_keys]
        register = {"same": alloc_key.get(seq), "other": key,
                    "none": None}[choice]
        out = _apply(new, op, seq, tokens, key, register)
        assert out == _apply(old, op, seq, tokens, key, register), (op, seq)
        if op.startswith("alloc") and isinstance(out, int):
            alloc_key[seq] = key if op == "alloc_keyed" else None
        _assert_same(new, old)
    for seq in list(old._held):
        new.free(seq)
        old.free(seq)
        _assert_same(new, old)
    return new


OP = st.tuples(
    st.sampled_from(["alloc", "alloc_keyed", "alloc_keyed", "append", "bulk",
                     "finish", "finish", "abort", "drop", "can_allocate",
                     "can_append"]),
    st.integers(min_value=1, max_value=8),       # seq id
    st.integers(min_value=0, max_value=600),     # tokens / bulk n
    st.integers(min_value=0, max_value=3),       # key choice
    st.sampled_from(["same", "other", "none"]))  # register key on finish


@given(ops=st.lists(OP, min_size=50, max_size=400),
       capacity=st.integers(min_value=4, max_value=60),
       n_keys=st.integers(min_value=1, max_value=4))
@settings(max_examples=250, deadline=None)
def test_run_length_cache_matches_the_per_block_reference(ops, capacity,
                                                          n_keys):
    play(ops, capacity, n_keys)


# -- the gap cases, scripted ---------------------------------------------------------


def test_interleaved_holders_leave_a_gap_that_still_matches():
    """Two holders of one key register interleaved ranges; eviction then
    trims the lower range while a higher one stays resident."""
    bs = BLOCK_SIZE
    bm = play([
        ("alloc_keyed", 1, 4 * bs, 0, "same"),
        ("finish", 1, 0, 0, "same"),              # k0/0..3 resident
        ("alloc_keyed", 2, 5 * bs, 0, "same"),    # holds k0/0..3
        ("alloc_keyed", 3, 3 * bs, 0, "same"),    # holds k0/0..1
        ("bulk", 3, 4 * bs, 0, "same"),           # 7 blocks of context
        ("bulk", 2, 5 * bs, 0, "same"),           # 10 blocks of context
        ("finish", 3, 0, 0, "same"),              # registers k0/4..6
        ("finish", 2, 0, 0, "same"),              # k0/7..9, frees k0/0..3
        ("alloc", 4, 10 * bs, 0, "same"),         # evicts k0/6..4 and k0/9
    ], capacity_blocks=16, n_keys=1)
    assert bm.cache_evictions == 4
    assert bm._runs["k0"] == [[0, 4], [7, 9]]     # k0/4..6 is a hole


def test_finish_under_another_key_leaves_a_gap_that_still_matches():
    """A finish registered under another key than its allocation skips
    that key's first blocks: the chain starts with a hole."""
    bs = BLOCK_SIZE
    ops = [
        ("alloc_keyed", 1, 3 * bs, 0, "same"),
        ("finish", 1, 0, 0, "same"),              # k0/0..2 resident
        ("alloc_keyed", 2, 5 * bs, 0, "same"),    # holds k0/0..2
        ("finish", 2, 0, 1, "other"),             # registers k1/3..4 only
        ("alloc_keyed", 3, 6 * bs, 1, "same"),    # k1 has no block 0: miss
    ]
    bm = play(ops, capacity_blocks=20, n_keys=2)
    assert bm.cache_hit_blocks == 3 and bm.cache_miss_blocks == 2 + 1 + 5
    assert bm._runs["k1"] == [[3, 5]]


@pytest.mark.parametrize("block_size", [1, 4])
def test_small_blocks_match_the_reference(block_size):
    """A non-default block size through the same harness."""
    play([("alloc_keyed", 1, 9, 0, "same"), ("bulk", 1, 7, 0, "same"),
          ("finish", 1, 0, 0, "same"), ("alloc_keyed", 2, 20, 0, "same"),
          ("alloc_keyed", 3, 30, 1, "same"), ("finish", 2, 0, 1, "other"),
          ("alloc", 4, 25, 0, "same"), ("finish", 3, 0, 0, "same"),
          ("drop", 1, 0, 0, "same"), ("alloc_keyed", 5, 0, 0, "same")],
         capacity_blocks=12, n_keys=2, block_size=block_size)
