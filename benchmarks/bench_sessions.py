"""Session-serving benchmarks: the TTFT win from KV prefix reuse.

Two benchmarks pin the sessions subsystem:

* **Warm vs cold conversational fleet** — the same multi-turn scenario
  (>= 5-turn sessions, cache-affinity routing) simulated twice, with
  prefix caching on and off.  The acceptance gate of the subsystem rides
  on the recorded metrics: mean non-first-turn TTFT must be at least 2x
  lower warm than cold (it is typically 3-4x), with the hit rate and
  cached-token ratio recorded alongside.
* **Sessions campaign cell** — one cell of the built-in ``sessions-9``
  grid end to end, wall-clocked, with its trace digest pinned so any
  behavioral drift in session scheduling, caching, or affinity routing
  fails the regression gate.

The deterministic simulated metrics in ``extra_info`` feed the usual
drift gate (``benchmarks/check_regression.py``).
"""

from __future__ import annotations

from repro.campaign import ScenarioSpec, ScheduleSpec, SiteSpec
from repro.campaign.catalogue import sessions_grid
from repro.campaign.runner import run_cell
from repro.fleet import AutoscalerConfig, SloSpec
from repro.sessions import SessionSpec

MODEL = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"


def _scenario(prefix_caching: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="bench-sessions" + ("" if prefix_caching else "-cold"),
        seed=7, model=MODEL, platforms=("hops",),
        policy="cache-affinity" if prefix_caching else "least-outstanding",
        initial_replicas=2, horizon=1800.0,
        site=SiteSpec(hops_nodes=6, eldorado_nodes=2, goodall_nodes=4,
                      cee_nodes=1),
        schedule=ScheduleSpec(kind="poisson", rate_rps=0.08),
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=2),
        sessions=SessionSpec(enabled=True, mean_turns=6, min_turns=5,
                             max_turns=10, think_mean_s=20.0,
                             prefix_caching=prefix_caching))


def _run_warm_and_cold():
    warm = run_cell(_scenario(True))
    cold = run_cell(_scenario(False))
    return warm, cold


def test_bench_sessions_prefix_cache(benchmark):
    """Warm-vs-cold conversational fleet (the >= 2x TTFT gate)."""
    warm, cold = benchmark.pedantic(_run_warm_and_cold, rounds=1,
                                    iterations=1)
    warm_later = warm["turn_ttft"]["later"]["mean_s"]
    cold_later = cold["turn_ttft"]["later"]["mean_s"]
    speedup = cold_later / warm_later
    benchmark.extra_info.update({
        "requests": warm["sessions"]["turns_submitted"]
        + cold["sessions"]["turns_submitted"],
        "sessions": warm["arrivals"],
        "turns_ok": warm["sessions"]["turns_ok"],
        "ttft_later_warm_ms": round(warm_later * 1000, 2),
        "ttft_later_cold_ms": round(cold_later * 1000, 2),
        "ttft_first_warm_ms": round(
            warm["turn_ttft"]["first"]["mean_s"] * 1000, 2),
        "speedup": round(speedup, 2),
        "hit_rate": warm["cache"]["hit_rate"],
        "cached_token_ratio": warm["cache"]["cached_token_ratio"],
        "warm_digest": warm["trace_digest"],
        "cold_digest": cold["trace_digest"],
    })
    assert warm["errors"] == 0 and cold["errors"] == 0
    assert warm["sessions"]["turns_histogram"].keys() >= {"5"}, \
        "the scenario must produce >= 5-turn sessions"
    assert warm["cache"]["hit_rate"] > 0.5
    assert cold["cache"]["hit_rate"] == 0.0
    assert speedup >= 2.0, (
        f"prefix caching must at least halve mean non-first-turn TTFT "
        f"(warm {warm_later * 1000:.1f} ms vs cold "
        f"{cold_later * 1000:.1f} ms = {speedup:.2f}x)")


def _run_sessions_cell():
    grid = sessions_grid(seed=42)
    spec, _axes = grid.expand()[0]
    return run_cell(spec)


def test_bench_sessions_campaign_cell(benchmark):
    """One ``sessions-9`` grid cell end to end (wall time + digest pin)."""
    row = benchmark.pedantic(_run_sessions_cell, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "requests": row["sessions"]["turns_submitted"],
        "cell": row["cell"],
        "sessions": row["arrivals"],
        "completed": row["completed"],
        "errors": row["errors"],
        "attainment": row["attainment"],
        "hit_rate": row["cache"]["hit_rate"],
        "trace_digest": row["trace_digest"],
    })
    assert row["errors"] == 0
    assert row["sessions"]["turns_ok"] > 0
