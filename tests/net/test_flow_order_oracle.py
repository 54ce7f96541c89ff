"""The start-ordered ``FlowNetwork`` against its sorted-set form.

``FlowNetwork.active`` keeps the active flows in an insertion-ordered
dict, and passes over them in that order.  Before, it was a set, sorted
by flow id on every pass, with a completion closure built per
reallocation.  ``_SortedSetNetwork`` below is a frozen copy of that
code and is the oracle: over drawn flow sets (overlapping starts,
cancels, zero-byte flows, rate caps, link-less flows of infinite rate
and completion-time ties) both must give equal completion times,
``bytes_done``, completion order and trace records.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TransferError
from repro.net.flows import Flow, FlowNetwork, Link, max_min_fair_rates
from repro.simkernel import SimKernel


class _SortedSetNetwork:
    """Frozen copy of ``FlowNetwork`` with its flows in a set."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.active = set()
        self._last_settle = kernel.now
        self._generation = 0

    def start_flow(self, path, nbytes, name="", rate_cap=None):
        flow = Flow(self, path, nbytes, name=name, rate_cap=rate_cap)
        if flow.total_bytes == 0:
            flow.finished_at = self.kernel.now
            flow.done.succeed(flow)
            return flow
        self._settle()
        self.active.add(flow)
        self._reallocate()
        self.kernel.trace.emit("net.flow.start", flow=flow.name,
                               nbytes=nbytes,
                               links=[link.name for link in flow.path])
        return flow

    def cancel_flow(self, flow):
        if flow not in self.active:
            return
        self._settle()
        self.active.discard(flow)
        flow.cancelled = True
        flow.finished_at = self.kernel.now
        flow.done.fail(TransferError(
            f"flow {flow.name} cancelled", sim_time=self.kernel.now))
        self._reallocate()

    def _ordered(self):
        return sorted(self.active, key=lambda f: f.id)

    def _settle(self):
        now = self.kernel.now
        dt = now - self._last_settle
        if dt > 0:
            for flow in self._ordered():
                if math.isinf(flow.rate):
                    flow.bytes_done = flow.total_bytes
                else:
                    flow.bytes_done = min(
                        flow.total_bytes, flow.bytes_done + flow.rate * dt)
        self._last_settle = now

    def _reallocate(self):
        self._generation += 1
        gen = self._generation
        ordered = self._ordered()
        rates = max_min_fair_rates(ordered)
        for flow, rate in rates.items():
            flow.rate = rate
        finished = [f for f in ordered
                    if f.remaining <= self._tolerance(f)
                    or math.isinf(f.rate)]
        for flow in finished:
            self._complete(flow)
        if finished:
            self._reallocate()
            return
        next_eta = math.inf
        for flow in ordered:
            if flow.rate > 0:
                next_eta = min(next_eta, flow.remaining / flow.rate)
        if math.isfinite(next_eta):
            timer = self.kernel.timeout(next_eta)
            timer.add_callback(self._make_finisher(gen))

    @staticmethod
    def _tolerance(flow):
        return max(1.0, flow.total_bytes * 1e-9)

    def _make_finisher(self, gen):
        def finisher(_ev):
            if gen != self._generation:
                return
            self._settle()
            finished = [f for f in self._ordered()
                        if f.remaining <= self._tolerance(f)]
            if not finished:
                due = min(self._ordered(),
                          key=lambda f: (f.remaining / f.rate
                                         if f.rate > 0 else math.inf,
                                         f.id))
                finished = [due]
            for flow in finished:
                self._complete(flow)
            self._reallocate()
        return finisher

    def _complete(self, flow):
        flow.bytes_done = flow.total_bytes
        flow.finished_at = self.kernel.now
        self.active.discard(flow)
        if not flow.done.triggered:
            flow.done.succeed(flow)
        self.kernel.trace.emit("net.flow.done", flow=flow.name,
                               elapsed=flow.finished_at - flow.started_at,
                               mean_bps=flow.mean_throughput)

    def utilization(self, link):
        used = sum(f.rate for f in self._ordered() if link in f.path
                   and not math.isinf(f.rate))
        return used / link.capacity


#: One drawn flow: start time (few values, so starts overlap), size
#: (zero and equal sizes included, so completions tie), link subset
#: (empty: no link, infinite rate), rate cap, and a cancel delay.
FLOW = st.tuples(
    st.sampled_from((0.0, 0.0, 0.5, 1.0, 1.0, 2.5)),
    st.sampled_from((0.0, 1.0, 100.0, 1000.0, 1000.0, 4096.0))
    | st.floats(1.0, 1e5),
    st.lists(st.integers(0, 3), max_size=3, unique=True),
    st.sampled_from((None, None, 50.0, 250.0)),
    st.sampled_from((None, None, None, 0.0, 0.5, 3.0)))


def _play(network_cls, caps, flows):
    kernel = SimKernel(seed=3)
    kernel.trace.retain = True
    links = [Link(f"l{i}", cap) for i, cap in enumerate(caps)]
    network = network_cls(kernel)
    started = []
    log = []
    probes = []

    def on_done(ev):
        ok = ev.ok
        log.append((kernel.now, ev.value.name if ok else str(ev.value)))

    def start(spec):
        i, (_at, nbytes, idxs, cap, cancel_after) = spec
        flow = network.start_flow([links[k] for k in idxs], nbytes,
                                  name=f"f{i}", rate_cap=cap)
        flow.done.add_callback(on_done)
        started.append(flow)
        probes.append(tuple(network.utilization(link) for link in links))
        if cancel_after is not None:
            kernel.call_in(cancel_after, lambda _: network.cancel_flow(flow))

    for spec in enumerate(flows):
        kernel.call_at(spec[1][0], start, spec)
    kernel.run()
    return ([(f.name, f.finished_at, f.bytes_done, f.cancelled, f.rate)
             for f in started], log, probes,
            [(r.time, r.kind, r.fields) for r in kernel.trace.records],
            kernel.trace.digest())


@given(caps=st.lists(st.sampled_from((100.0, 100.0, 400.0, 1e3))
                     | st.floats(1.0, 1e4), min_size=4, max_size=4),
       flows=st.lists(FLOW, min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_start_ordered_network_equals_sorted_set(caps, flows):
    ours = _play(FlowNetwork, caps, flows)
    oracle = _play(_SortedSetNetwork, caps, flows)
    assert ours == oracle


def test_the_oracle_sees_ties_infinite_rates_and_cancels():
    """A fixed flow set with a completion tie, a link-less flow, a
    zero-byte flow, a capped flow and a cancel, so the property above is
    not vacuous on any of them."""
    flows = [(0.0, 1000.0, [0], None, None), (0.0, 1000.0, [0], None, None),
             (0.0, 500.0, [], None, None), (0.5, 0.0, [1], None, None),
             (1.0, 4096.0, [0, 1], 50.0, None),
             (1.0, 1e5, [1], None, 0.5)]
    ours = _play(FlowNetwork, [100.0, 400.0, 1e3, 1e3], flows)
    assert ours == _play(_SortedSetNetwork, [100.0, 400.0, 1e3, 1e3], flows)
    finished = {name: at for name, at, *_ in ours[0]}
    assert finished["f0"] == finished["f1"]             # the tie
    assert finished["f2"] == 0.0                        # infinite rate
    assert finished["f3"] == 0.5                        # zero bytes
    assert [c for *_, c, _ in ours[0]] == [False] * 5 + [True]
