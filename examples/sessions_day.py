#!/usr/bin/env python3
"""A conversational day: 24 simulated hours of multi-turn sessions.

The fleet examples so far treat every request as independent.  This one
serves what a chat product actually sees: a diurnal curve of *session
starts* — each start becoming a conversation of several turns, every
turn's prompt carrying the whole prior context plus fresh user text,
with human think time between turns.  Two serving features carry the
day:

* **KV prefix caching** — each replica's engine keeps finished-turn
  context blocks resident (ref-counted, LRU-evicted under pressure), so
  a follow-up turn prefills only its tail;
* **cache-affinity routing** — the router pins each session to the
  replica holding its prefix, falling back to least-outstanding on
  quarantine or churn.

The same day is replayed with caching disabled to measure the win: mean
non-first-turn TTFT must improve by at least 2x (it is typically 3-4x).

Run:  python examples/sessions_day.py
"""

from __future__ import annotations

from repro.campaign import ScenarioSpec, ScheduleSpec, SiteSpec, play
from repro.fleet import AutoscalerConfig, SloSpec
from repro.sessions import SessionSpec
from repro.units import fmt_duration

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"
SEED = 2026
DAY = 24 * 3600.0


def build_spec(prefix_caching: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="sessions-day" + ("" if prefix_caching else "-cold"),
        seed=SEED, model=QUANT, tensor_parallel_size=2,
        platforms=("hops", "goodall"),
        policy="cache-affinity" if prefix_caching else "least-outstanding",
        initial_replicas=1, horizon=DAY,
        site=SiteSpec(hops_nodes=8, eldorado_nodes=4, goodall_nodes=4,
                      cee_nodes=2),
        # Quiet nights ~0.01 sessions/s, afternoons ~0.08 sessions/s —
        # at ~5 turns each, the *request* rate is ~5x higher.
        schedule=ScheduleSpec(kind="diurnal", base_rps=0.01,
                              peak_rps=0.08, peak_hour=14.0),
        slo=SloSpec(name="chat", ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=4,
                                    target_outstanding=8.0),
        sessions=SessionSpec(enabled=True, mean_turns=5, min_turns=2,
                             max_turns=12, think_mean_s=30.0,
                             prefix_caching=prefix_caching))


def run_day(prefix_caching: bool):
    report, fleet, _digest = play(build_spec(prefix_caching))
    return report, fleet.kernel.now


def main() -> None:
    warm, sim_time = run_day(prefix_caching=True)
    print(warm.summary())
    log = warm.sessions
    print(f"\n  sessions: {log['started']} started, "
          f"{log['turns_ok']}/{log['turns_submitted']} turns ok, "
          f"max context {log['context_tokens_max']} tokens")
    print(f"simulated time: {fmt_duration(sim_time)}")

    print("\nreplaying the identical day with prefix caching off ...")
    cold, _ = run_day(prefix_caching=False)

    warm_later = warm.slo.turns["later"]["mean_s"]
    cold_later = cold.slo.turns["later"]["mean_s"]
    speedup = cold_later / warm_later
    hit_rate = warm.slo.cache["hit_rate"]
    print(f"  later-turn TTFT mean: warm {warm_later * 1000:.1f} ms vs "
          f"cold {cold_later * 1000:.1f} ms  ({speedup:.1f}x)")
    print(f"  prefix-cache hit rate: {hit_rate:.1%}, "
          f"{warm.slo.cache['cached_token_ratio']:.1%} of session prompt "
          f"tokens served from cache")

    # The conversational story this example exists to demonstrate:
    assert warm.slo.attainment > 0.95, "the chat SLO must hold all day"
    assert hit_rate > 0.5, "later turns should mostly hit the cache"
    assert speedup >= 2.0, "prefix reuse must at least halve later TTFT"
    print(f"\nconversational day OK: {log['started']} sessions, "
          f"hit rate {hit_rate:.1%}, later-turn TTFT {speedup:.1f}x faster")


if __name__ == "__main__":
    main()
