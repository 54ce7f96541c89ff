"""Chaos recovery benchmark: MTTR under representative faults.

Runs a slice of the chaos catalog (quick mode, one fresh site per case)
on each platform kind and records the resilience scorecard — MTTR,
requests lost vs retried, detection delay — as the deterministic record
CI's regression gate compares against.  Asserts the recovery invariants
the full matrix enforces: every fault detected where expected, MTTR
finite and bounded, and no request lost to a single-replica fault while
a healthy replica remains.
"""

from __future__ import annotations

from repro.chaos import PLATFORM_FLEETS, case_spec, run_case

HPC_SCENARIOS = ("engine_oom", "node_crash", "registry_outage")
K8S_SCENARIOS = ("pod_eviction", "gpu_ecc")

#: Quick-mode recovery budget: fault duration (600 s) + redeploy
#: (image pull, weight streaming, engine init) + one supervisor sweep.
MTTR_BUDGET_S = 1800.0


def _run_and_check(benchmark, platform_kind, scenarios):
    def run():
        fleet_platform = PLATFORM_FLEETS[platform_kind]
        return [run_case(case_spec(name, fleet_platform), platform_kind)
                for name in scenarios]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for _row, report, res in results:
        assert res.recovery_ok, f"{res.scenario} did not recover"
        assert res.mttr_s is not None and res.mttr_s <= MTTR_BUDGET_S
        assert res.detected_at is not None, \
            f"{res.scenario} never registered on probes"
        assert report.slo.errors == 0, \
            f"{res.scenario} lost {report.slo.errors} requests"
        benchmark.extra_info[res.scenario] = {
            "mttr_s": res.mttr_s,
            "detect_s": round(res.detected_at - res.injected_at, 1),
            "lost": res.requests_lost,
            "retried": res.requests_retried,
            "repairs": len(res.repair_events),
        }


def test_chaos_recovery_hpc(benchmark):
    _run_and_check(benchmark, "hpc", HPC_SCENARIOS)


def test_chaos_recovery_k8s(benchmark):
    _run_and_check(benchmark, "k8s", K8S_SCENARIOS)
