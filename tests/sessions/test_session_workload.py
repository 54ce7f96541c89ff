"""SessionTraffic behavior against a stub serving stack: turn ordering,
context growth, horizon cut, abort-on-error, and replay determinism."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (PoissonSchedule, RequestRecord, Tenant,
                         TenantMix)
from repro.sessions import SessionSpec, SessionTraffic
from repro.simkernel import SimKernel


class StubServer:
    """Records every turn; answers after a fixed service time."""

    def __init__(self, kernel, service_time=0.5, fail_request=None):
        self.kernel = kernel
        self.service_time = service_time
        self.fail_request = fail_request
        self.turns: list[dict] = []

    def request(self, tenant, prompt_tokens, output_tokens,
                session=None, turn=0):
        submitted = self.kernel.now
        self.turns.append({"t": submitted, "tenant": tenant,
                           "session": session, "turn": turn,
                           "prompt": prompt_tokens,
                           "budget": output_tokens})
        yield self.kernel.timeout(self.service_time)
        if self.fail_request is not None \
                and len(self.turns) == self.fail_request:
            return RequestRecord(tenant, submitted, self.kernel.now,
                                 ttft=0.0, latency=self.service_time,
                                 ok=False, error="boom")
        return RequestRecord(tenant, submitted, self.kernel.now, ttft=0.01,
                             latency=self.service_time,
                             output_tokens=output_tokens)


def _run(spec, seed=5, horizon=1200.0, rate=0.02, **stub_kw):
    kernel = SimKernel(seed=seed)
    server = StubServer(kernel, **stub_kw)
    traffic = SessionTraffic(kernel, PoissonSchedule(rate), spec,
                             server.request)
    started = kernel.run(until=kernel.spawn(traffic.run(horizon)))
    return kernel, server, traffic, started


def test_requires_enabled_spec():
    kernel = SimKernel(seed=1)
    with pytest.raises(ConfigurationError):
        SessionTraffic(kernel, PoissonSchedule(0.1), SessionSpec(),
                       lambda *a, **k: None)


def test_turns_are_ordered_and_context_grows():
    spec = SessionSpec(enabled=True, mean_turns=4, min_turns=2,
                       think_mean_s=10.0)
    _, server, traffic, started = _run(spec)
    assert started > 0
    by_session: dict[str, list[dict]] = {}
    for turn in server.turns:
        by_session.setdefault(turn["session"], []).append(turn)
    assert len(by_session) == started
    for turns in by_session.values():
        # Turn indices are 1..n in submission order, strictly spaced by
        # at least the service time (closed loop: no overlap).
        assert [t["turn"] for t in turns] == list(range(1, len(turns) + 1))
        for a, b in zip(turns, turns[1:]):
            assert b["t"] >= a["t"] + 0.5
            # prompt_{k+1} = prompt_k + output_k + fresh user text
            assert b["prompt"] > a["prompt"] + a["budget"]


def test_replay_is_deterministic_and_schedule_independent_per_session():
    spec = SessionSpec(enabled=True, mean_turns=3, think_mean_s=15.0)
    _, server_a, _, _ = _run(spec, seed=9)
    _, server_b, _, _ = _run(spec, seed=9)
    assert server_a.turns == server_b.turns
    _, server_c, _, _ = _run(spec, seed=10)
    assert server_a.turns != server_c.turns


def test_session_streams_are_independent_of_arrival_rate():
    """Session i's draws come from its own stream: doubling the arrival
    rate adds sessions but session 0's turn/length plan is unchanged."""
    spec = SessionSpec(enabled=True, mean_turns=3, think_mean_s=15.0)
    _, server_a, _, started_a = _run(spec, seed=9, rate=0.02)
    _, server_b, _, started_b = _run(spec, seed=9, rate=0.08)
    assert started_b > started_a

    def plan(server, sid):
        return [(t["turn"], t["prompt"], t["budget"])
                for t in server.turns if t["session"] == sid]

    assert plan(server_a, "s0") == plan(server_b, "s0")


def test_horizon_cuts_conversations():
    spec = SessionSpec(enabled=True, mean_turns=8, min_turns=8,
                       max_turns=8, think_mean_s=400.0)
    kernel, server, traffic, started = _run(spec, horizon=900.0)
    log = traffic.log
    assert log.finished == started
    assert log.cut_by_horizon > 0
    # No turn may be *submitted* after the cut decision point; sessions
    # stop scheduling think sleeps that would land past the horizon.
    assert all(t["t"] <= 900.0 + 400.0 * 4 for t in server.turns)


def test_failed_turn_aborts_session():
    spec = SessionSpec(enabled=True, mean_turns=6, min_turns=6,
                       max_turns=6, think_mean_s=5.0)
    kernel, server, traffic, _ = _run(spec, fail_request=2)
    log = traffic.log
    assert log.aborted == 1
    assert log.turns_ok == log.turns_submitted - 1
    aborted_session = server.turns[1]["session"]
    later = [t for t in server.turns[2:]
             if t["session"] == aborted_session]
    assert later == []                     # no turn after the failure


def test_context_cap_truncates():
    spec = SessionSpec(enabled=True, mean_turns=10, min_turns=10,
                       max_turns=10, think_mean_s=1.0,
                       max_context_tokens=600)
    _, server, traffic, _ = _run(spec)
    assert traffic.log.truncated > 0
    assert all(t["prompt"] + t["budget"] <= 600 for t in server.turns)


def test_tenant_mix_picks_by_weight():
    kernel = SimKernel(seed=3)
    server = StubServer(kernel)
    mix = TenantMix(kernel, [Tenant("chat", 9.0), Tenant("agent", 1.0)])
    spec = SessionSpec(enabled=True, mean_turns=2, think_mean_s=5.0)
    traffic = SessionTraffic(kernel, PoissonSchedule(0.05), spec,
                             server.request, mix=mix)
    kernel.run(until=kernel.spawn(traffic.run(3600.0)))
    tenants = {t["tenant"] for t in server.turns}
    assert tenants <= {"chat", "agent"}
    chat = sum(t["tenant"] == "chat" for t in server.turns)
    assert chat > len(server.turns) / 2
