#!/usr/bin/env python3
"""A chaos game day: six hours of traffic, four faults, one fleet.

Real game days throw a *sequence* of failures at one production system
while traffic keeps flowing.  This scenario runs a converged hops +
goodall fleet under steady open-loop load and injects, over six
simulated hours:

* 00:40 — a memory-leak OOM in one replica's engine (Fig. 12 run 1);
* 01:50 — a node crash under another replica (down for 15 minutes);
* 03:10 — a network partition cutting a replica off the site fabric;
* 04:30 — a Kubernetes pod eviction.

The replica supervisor (the paper's "cron job") and the router's
failover handle every one of them: dead replicas are redeployed through
the unified deployer, pods that resurface on other nodes are re-pointed
at the router, and the end-of-day report shows the per-fault recovery
windows plus the repair log.

Everything derives from one seed; the game day replays identically on
every run.

Run:  python examples/chaos_gameday.py
"""

from __future__ import annotations

from repro.chaos import ChaosOrchestrator, catalog
from repro.core import build_sandia_site
from repro.fleet import (AutoscalerConfig, Fleet, FleetConfig,
                         PoissonSchedule, SloSpec)
from repro.units import fmt_duration

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"
SEED = 2025
HORIZON = 6 * 3600.0


def main() -> None:
    site = build_sandia_site(seed=SEED, hops_nodes=8, eldorado_nodes=4,
                             goodall_nodes=5, cee_nodes=2)
    kernel = site.kernel

    fleet = Fleet(site, FleetConfig(
        model=QUANT,
        tensor_parallel_size=2,
        platforms=("hops", "goodall"),
        policy="least-outstanding",
        slo=SloSpec(name="interactive", ttft_target=10.0,
                    e2e_target=120.0),
        autoscaler=AutoscalerConfig(
            min_replicas=2, max_replicas=4, target_outstanding=8.0),
    ))
    orchestrator = ChaosOrchestrator(fleet)

    by_name = {s.name: s for s in catalog()}
    plan = [
        (2400.0, by_name["engine_oom"]),
        (6600.0, by_name["node_crash"]),
        (11400.0, by_name["network_partition"]),
        (16200.0, by_name["pod_eviction"]),
    ]

    def gameday(env):
        yield from fleet.start(initial_replicas=2)
        result = yield from orchestrator.run_gameday(
            plan, PoissonSchedule(0.15), HORIZON, fault_duration=900.0,
            platform_name="goodall")
        return result

    report, windows = kernel.run(until=kernel.spawn(gameday(kernel),
                                                    name="gameday"))
    fleet.shutdown()

    print(report.summary())
    print(f"\nsimulated time: {fmt_duration(kernel.now)}")
    print("\ngame-day faults:")
    for window in windows:
        mttr = ("not recovered" if window.mttr_s is None
                else f"recovered in {window.mttr_s:.0f}s")
        when = fmt_duration(window.injected_at)
        print(f"  [{when:>9s}] {window.scenario:18s} "
              f"[{window.layer}] -> {mttr}")
    print("\nrepair log:")
    events = report.resilience["repair_events"]
    if not events:
        print("  (none)")
    for event in events:
        print(f"  [{fmt_duration(event['t']):>9s}] {event['action']:15s} "
              f"{event['replica']:10s} {event['detail']}")

    unrecovered = [w.summary() for w in windows if not w.recovery_ok]
    assert not unrecovered, f"faults without recovery: {unrecovered}"
    assert report.slo.attainment > 0.8


if __name__ == "__main__":
    main()
