"""Property-based tests: max-min fairness invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flows import Flow, FlowNetwork, Link, max_min_fair_rates
from repro.simkernel import SimKernel


@st.composite
def flow_scenarios(draw):
    """Random link sets and flows over random sub-paths."""
    n_links = draw(st.integers(min_value=1, max_value=6))
    caps = draw(st.lists(st.floats(min_value=1.0, max_value=1e4),
                         min_size=n_links, max_size=n_links))
    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    n_flows = draw(st.integers(min_value=1, max_value=10))
    paths = []
    for _ in range(n_flows):
        idxs = draw(st.lists(st.integers(min_value=0, max_value=n_links - 1),
                             min_size=1, max_size=n_links, unique=True))
        paths.append([links[i] for i in idxs])
    return links, paths


@given(flow_scenarios())
@settings(max_examples=200, deadline=None)
def test_no_link_oversubscribed_and_rates_positive(scenario):
    links, paths = scenario
    kernel = SimKernel()
    net = FlowNetwork(kernel)
    flows = [net.start_flow(p, 1e12) for p in paths]
    rates = {f: f.rate for f in flows}
    for f, r in rates.items():
        assert r > 0
        assert math.isfinite(r)
    for link in links:
        used = sum(r for f, r in rates.items() if link in f.path)
        assert used <= link.capacity * (1 + 1e-9)


@given(flow_scenarios())
@settings(max_examples=200, deadline=None)
def test_max_min_property(scenario):
    """No flow's rate can be raised without lowering an equal-or-slower
    flow: every flow must traverse a saturated link on which it has the
    maximum rate."""
    links, paths = scenario
    kernel = SimKernel()
    net = FlowNetwork(kernel)
    flows = [net.start_flow(p, 1e12) for p in paths]
    rates = {f: f.rate for f in flows}
    for f in flows:
        has_binding_link = False
        for link in f.path:
            used = sum(rates[g] for g in flows if link in g.path)
            saturated = used >= link.capacity * (1 - 1e-6)
            if saturated:
                fastest_on_link = max(rates[g] for g in flows
                                      if link in g.path)
                if rates[f] >= fastest_on_link * (1 - 1e-6):
                    has_binding_link = True
                    break
        assert has_binding_link, (
            f"flow rate {rates[f]} has headroom on all its links")


@given(scenario=flow_scenarios(),
       sizes=st.lists(st.floats(min_value=1.0, max_value=1e9),
                      min_size=10, max_size=10))
@settings(max_examples=50, deadline=None)
def test_all_flows_eventually_complete(scenario, sizes):
    """Work conservation: finite flows always finish, bytes conserved."""
    _links, paths = scenario
    kernel = SimKernel()
    net = FlowNetwork(kernel)
    flows = [net.start_flow(p, sizes[i % len(sizes)])
             for i, p in enumerate(paths)]
    kernel.run()
    for f in flows:
        assert f.done.triggered and f.done.ok
        assert f.bytes_done == f.total_bytes
        assert f.finished_at is not None


@given(st.integers(min_value=1, max_value=20),
       st.floats(min_value=10.0, max_value=1e4))
@settings(max_examples=50, deadline=None)
def test_equal_flows_finish_simultaneously(n, cap):
    """N identical flows through one link all finish at n*size/cap."""
    kernel = SimKernel()
    net = FlowNetwork(kernel)
    link = Link("l", cap)
    size = 1e6
    flows = [net.start_flow([link], size) for _ in range(n)]
    kernel.run()
    expected = n * size / cap
    for f in flows:
        assert abs(f.finished_at - expected) / expected < 1e-6


# -- the lone-flow closed form against progressive filling ---------------------


def _progressive_filling(flows):
    """Frozen copy of ``max_min_fair_rates`` before its lone-flow
    closed form: progressive filling for every flow count."""
    rates = {}
    unfixed = set(flows)
    if not unfixed:
        return rates
    remaining = {}
    members = {}
    for flow in flows:
        for link in flow.path:
            if link not in remaining:
                remaining[link] = link.capacity
                members[link] = set()
            members[link].add(flow)
    while unfixed:
        best_share = math.inf
        best_link = None
        for link, flws in members.items():
            live = flws & unfixed
            if not live:
                continue
            share = remaining[link] / len(live)
            if share < best_share:
                best_share = share
                best_link = link
        capped = sorted(
            (f for f in unfixed
             if f.rate_cap is not None and f.rate_cap <= best_share),
            key=lambda f: f.id)
        if capped:
            tightest = min(f.rate_cap for f in capped)
            for flow in [f for f in capped if f.rate_cap == tightest]:
                rates[flow] = tightest
                unfixed.discard(flow)
                for link in flow.path:
                    remaining[link] = max(0.0, remaining[link] - tightest)
            continue
        if best_link is None:
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


@st.composite
def capped_flow_sets(draw):
    """1-4 flows over shared or disjoint links (or none), each with no
    cap or a cap below, equal to or above its tightest link."""
    shared = draw(st.booleans())
    n_flows = draw(st.integers(min_value=1, max_value=4))
    n_links = draw(st.integers(min_value=1, max_value=4))
    caps = draw(st.lists(
        st.one_of(st.floats(min_value=1.0, max_value=1e10),
                  st.just(math.inf)),
        min_size=n_links * n_flows, max_size=n_links * n_flows))
    pool = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    kernel = SimKernel()
    net = FlowNetwork(kernel)
    flows = []
    for k in range(n_flows):
        links = pool[:n_links] if shared else \
            pool[k * n_links:(k + 1) * n_links]
        path = draw(st.lists(st.sampled_from(links), max_size=n_links))
        tightest = min((link.capacity for link in path), default=math.inf)
        cap_kind = draw(st.sampled_from(("none", "below", "equal", "above",
                                         "any")))
        if cap_kind == "none" or (not math.isfinite(tightest)
                                  and cap_kind != "any"):
            cap = None
        elif cap_kind == "below":
            cap = tightest * 0.5
        elif cap_kind == "equal":
            cap = tightest
        elif cap_kind == "above":
            cap = tightest * 2.0
        else:
            cap = draw(st.floats(min_value=0.5, max_value=1e10))
        flows.append(Flow(net, path, 1e9, rate_cap=cap))
    return flows


@given(capped_flow_sets())
@settings(max_examples=300, deadline=None)
def test_rates_bit_equal_to_progressive_filling(flows):
    got = max_min_fair_rates(flows)
    want = _progressive_filling(flows)
    assert got.keys() == want.keys()
    for flow, rate in want.items():
        assert type(got[flow]) is type(rate)
        assert got[flow] == rate, (flow.path, flow.rate_cap)
        if math.isfinite(rate):
            assert got[flow].hex() == rate.hex()
