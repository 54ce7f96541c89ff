"""One workload run in a fresh process; prints one JSON record.

``run.py`` starts this file once per measured run, with ``src`` on
``PYTHONPATH``:

    python3 perfbench/child.py '{"workload": "poisson_steady", "seed": 1,
                                 "trace": 0, "short": false, "t0": <t>}'

``t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, site and
fleet construction and replica bring-up, up to the first entry into
``Fleet.run_scenario``.  The program under test receives only the
:class:`ScenarioSpec`; the seed enters through the spec.

Workload sizes keep one run near a second on the host the benchmark
was tuned on, so a 25 s benchmark run holds about ten of them.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import resource
import signal
import sys
import time
from typing import Any

HOUR = 3600.0
DAY = 86400.0
#: host-speed sampling: one sample of SAMPLE_ITERS rounds (about 1 ms)
#: every SAMPLE_INTERVAL_S of wall time
SAMPLE_INTERVAL_S = 0.01
SAMPLE_ITERS = 1000


def build_spec(workload: str, seed: int, short: bool = False) -> Any:
    """The workload's spec; ``short`` is the self-check's variant."""
    from repro.campaign.runner import demo_grid, disagg_grid, sessions_grid
    from repro.campaign.spec import ChaosEventSpec, ScenarioSpec, ScheduleSpec

    if workload == "poisson_steady":
        # demo_grid cell 0: hops, 2-3 replicas, Poisson 2 rps.
        spec = demo_grid(seed).expand()[0][0]
        return dataclasses.replace(
            spec, horizon=(0.25 if short else 1.0) * HOUR)
    if workload == "pulse_idle":
        # The 100k pulse cell's shape: 1 rps for 250 s per simulated day.
        return ScenarioSpec(
            name="pulse-idle", seed=seed,
            horizon=(2 if short else 10) * DAY,
            schedule=ScheduleSpec(kind="pulse", rate_rps=1.0, period=DAY,
                                  duty=250.0 / DAY))
    if workload == "sessions_crash":
        spec = _cell(sessions_grid(seed), {
            "sessions.mean_turns": "6", "sessions.think_mean_s": "10",
            "sessions.prefix_caching": "True"})
        crash_at = 600.0 if short else 1200.0
        return dataclasses.replace(
            spec, horizon=(0.5 if short else 2 / 3) * HOUR,
            chaos=(ChaosEventSpec("node_crash", inject_at=crash_at,
                                  fault_duration=300.0),))
    if workload == "disagg_heavy":
        spec = _cell(disagg_grid(seed), {
            "disagg": "True", "schedule.rate_rps": "2", "seed": str(seed)})
        return dataclasses.replace(
            spec, horizon=(0.25 if short else 0.5) * HOUR)
    raise SystemExit(f"unknown workload {workload!r}")


def _cell(grid: Any, axes: dict[str, str]) -> Any:
    for spec, cell_axes in grid.expand():
        if all(cell_axes.get(k) == v for k, v in axes.items()):
            return spec
    raise SystemExit(f"no cell {axes} in grid {grid.name}")


class SpeedSampler:
    """Host-speed samples taken all through a run.

    Every ``SAMPLE_INTERVAL_S`` of wall time a ``SIGALRM`` handler times
    ``SAMPLE_ITERS`` rounds of fixed interpreter work that resembles a
    discrete-event loop (heap, dict) and uses no code of the program.
    The mean sample time over a phase is the host's speed during that
    phase, on the same core and with the same neighbours as the run;
    ``run.py`` scales the phase's timings by it.  The handler touches no
    simulation state, so the run's outputs are unchanged (the digests
    are compared across runs).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, _signum: int, _frame: Any) -> None:
        start = time.perf_counter()
        heap: list = []
        counts: dict = {}
        for i in range(SAMPLE_ITERS):
            heapq.heappush(heap, ((i * 7919) % 1009, i))
            if len(heap) > 64:
                t, j = heapq.heappop(heap)
                counts[t & 255] = counts.get(t & 255, 0) + j
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def phase(self, lo: int, hi: int) -> tuple[float, float]:
        """(seconds spent sampling, mean sample seconds) of samples
        ``lo:hi``."""
        taken = self.samples[lo:hi]
        if not taken:
            raise RuntimeError("no host-speed sample in a measured phase")
        return sum(taken), sum(taken) / len(taken)


def _profiler_off() -> None:
    """Fail loudly if the in-program profiler is on: it disarms the
    fleet's fast lane, so the run would not take the measured path."""
    from repro.obs.profile import profiler
    if profiler.enabled:
        raise RuntimeError("repro.obs.profile.profiler is enabled; the "
                           "benchmark measures the default path with it off")


def main(args: dict[str, Any]) -> dict[str, Any]:
    sampler = SpeedSampler()
    sampler.start()
    from repro.campaign.runner import run_cell
    from repro.fleet.fleet import Fleet

    seen: dict[str, Any] = {}
    run_scenario = Fleet.run_scenario

    def entry(fleet: Fleet, *a: Any, **kw: Any) -> Any:
        if "setup_s" not in seen:
            seen["setup_s"] = time.monotonic() - args["t0"]
            seen["setup_samples"] = len(sampler.samples)
            seen["fleet"] = fleet
            _profiler_off()
        return run_scenario(fleet, *a, **kw)

    Fleet.run_scenario = entry  # type: ignore[method-assign]
    tracer = None
    if args["trace"]:
        from layers import LayerTracer
        tracer = LayerTracer()
        tracer.install()

    spec = build_spec(args["workload"], args["seed"], args["short"])
    first = len(sampler.samples)
    start = time.perf_counter()
    row = run_cell(spec)
    wall_s = time.perf_counter() - start
    sampler.stop()
    if tracer is not None:
        tracer.uninstall()
    _profiler_off()
    setup_sampled_s, setup_sample_s = sampler.phase(0, seen["setup_samples"])
    sampled_s, sample_s = sampler.phase(first, len(sampler.samples))

    fleet = seen["fleet"]
    slo = fleet.slo.report()
    requests = row["completed"]
    obs = row["obs"]
    resilience = row["resilience"] or {}
    record: dict[str, Any] = {
        "workload": args["workload"],
        "seed": args["seed"],
        "traced": bool(tracer),
        # Gross times, sampling included; run.py takes the sampling out
        # and scales each phase by its mean sample time.
        "wall_s": wall_s,
        "sampled_s": sampled_s,
        "sample_s": sample_s,
        "setup_s": seen["setup_s"],
        "setup_sampled_s": setup_sampled_s,
        "setup_sample_s": setup_sample_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": requests,
        "attempted": row["completed"] + row["errors"],
        "errors": row["errors"],
        "lane_share": fleet.ff.fast_requests / requests,
        # Report-level outputs, compared against pinned.json.
        "pinned": {
            "arrivals": row["arrivals"],
            "completed": row["completed"],
            "errors": row["errors"],
            "attainment": row["attainment"],
            "ttft_s": slo.ttft_percentiles,
            "e2e_s": slo.e2e_percentiles,
            "cache_hit_rate": (row.get("cache") or {}).get("hit_rate"),
            "mttr_s": resilience.get("mttr_s"),
            "recovery_ok": resilience.get("recovery_ok"),
        },
        # Must agree across runs of one commit, traced or not; not pinned.
        "digests": {
            "trace": row["trace_digest"],
            "spans": obs["digests"]["spans"],
            "metrics": obs["digests"]["metrics"],
            "scrape": obs["scrape"]["digest"],
            "alerts": obs["alerts"]["digest"],
            "attribution": obs["attribution"]["digest"],
            "incidents": (resilience.get("incidents") or {}).get("digest"),
        },
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, fleet, requests)
    return record


def layer_metrics(tracer: Any, fleet: Any, requests: int) -> dict[str, float]:
    """The per-layer metrics of one traced run (see run.PER_LAYER)."""
    calls, site = tracer.layer_calls, tracer.calls
    self_s, counts = tracer.self_s, tracer.counts
    plan_jumps = site["Scheduler.plan_jump"]
    session_picks = counts.get("router.session_picks", 0)
    hits, lookups = tracer.prefix_cache()
    events = calls("simkernel")
    return {
        "simkernel.events": events,
        "simkernel.events_per_req": events / requests,
        "simkernel.self_s": self_s["simkernel"],
        "fleet.lane_share": fleet.ff.fast_requests / requests,
        "fleet.calls": calls("fleet"),
        "fleet.self_s": self_s["fleet"],
        "traffic.calls": calls("traffic"),
        "traffic.self_s": self_s["traffic"],
        "router.picks": site["LlmRouter._pick"],
        "router.self_s": self_s["router"],
        "router.affinity_hit_ratio": (
            counts.get("router.affinity_hits", 0) / session_picks
            if session_picks else 0.0),
        "engine.calls": (site["LLMEngine.submit"] + site["Scheduler.schedule"]
                         + plan_jumps),
        "engine.self_s": self_s["engine"],
        "engine.jump_ratio": (counts.get("engine.jumps", 0) / plan_jumps
                              if plan_jumps else 0.0),
        "kvcache.calls": calls("kvcache"),
        "kvcache.self_s": self_s["kvcache"],
        "kvcache.prefix_hit_ratio": hits / lookups if lookups else 0.0,
        "slo.observes": site["SloTracker.observe"],
        "slo.snapshots": site["SloTracker.snapshot"],
        "slo.self_s": self_s["slo"],
        "metrics.collects": calls("metrics"),
        "metrics.self_s": self_s["metrics"],
        "scrape.scrapes": calls("scrape"),
        "scrape.self_s": self_s["scrape"],
        "alerts.evaluations": calls("alerts"),
        "alerts.self_s": self_s["alerts"],
        "spans.emitted": calls("spans"),
        "spans.retained": fleet.kernel.obs.spans.span_count,
        "spans.self_s": self_s["spans"],
        "analysis.self_s": self_s["analysis"],
        "trace.records": calls("trace"),
        "trace.self_s": self_s["trace"],
        "net.calls": site["Fabric.latency"] + site["FlowNetwork.start_flow"],
        "net.self_s": self_s["net"],
        "net.kv_transfers": site["VllmOpenAIServer._kv_transfer"],
        "chaos.self_s": self_s["chaos"],
        "chaos.probes": site["ChaosOrchestrator._probe_once"],
        "gc.collections": tracer.gc_collections,
        "gc.pause_s": tracer.gc_pause_s,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
