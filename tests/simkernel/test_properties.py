"""Property-based tests for kernel invariants (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Resource, SimKernel
from repro.simkernel.rng import RngRegistry


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_events_processed_in_nondecreasing_time(delays):
    """The kernel never processes events out of time order."""
    kernel = SimKernel()
    seen: list[float] = []

    def proc(env, d):
        yield env.timeout(d)
        seen.append(env.now)

    for d in delays:
        kernel.spawn(proc(kernel, d))
    kernel.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=30),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_identical_seeds_identical_traces(delays, seed):
    """Two kernels with the same seed and program produce identical traces."""

    def build():
        kernel = SimKernel(seed=seed)
        kernel.trace.retain = True

        def proc(env, d):
            yield env.timeout(d)
            jitter = env.rng.stream("jitter").random()
            env.trace.emit("done", d=d, jitter=jitter)

        for d in delays:
            kernel.spawn(proc(kernel, d))
        kernel.run()
        return [(r.time, r.fields["d"], r.fields["jitter"])
                for r in kernel.trace.of_kind("done")]

    assert build() == build()


@given(capacity=st.integers(min_value=1, max_value=8),
       n_users=st.integers(min_value=1, max_value=40),
       holds=st.lists(st.floats(min_value=0.01, max_value=10.0,
                                allow_nan=False), min_size=40, max_size=40))
@settings(max_examples=50, deadline=None)
def test_resource_never_oversubscribed(capacity, n_users, holds):
    """in_use never exceeds capacity; all users eventually acquire."""
    kernel = SimKernel()
    res = Resource(kernel, capacity=capacity)
    acquired = []
    max_in_use = 0

    def user(env, hold):
        nonlocal max_in_use
        yield res.request()
        max_in_use = max(max_in_use, res.in_use)
        assert res.in_use <= res.capacity
        acquired.append(env.now)
        yield env.timeout(hold)
        res.release()

    for i in range(n_users):
        kernel.spawn(user(kernel, holds[i]))
    kernel.run()
    assert len(acquired) == n_users
    assert max_in_use <= capacity
    assert res.in_use == 0


@given(seed=st.integers(min_value=0, max_value=2**31),
       names=st.lists(st.text(min_size=1, max_size=10), min_size=1,
                      max_size=5, unique=True))
@settings(max_examples=100, deadline=None)
def test_rng_streams_stable_and_independent(seed, names):
    """Stream values depend only on (seed, name), not creation order."""
    reg_fwd = RngRegistry(seed)
    fwd = {n: reg_fwd.stream(n).random() for n in names}
    reg_rev = RngRegistry(seed)
    rev = {n: reg_rev.stream(n).random() for n in reversed(names)}
    assert fwd == rev
