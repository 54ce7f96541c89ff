"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``quickstart``          deploy + one query on Hops, print the artifacts.
``deploy``              unified deploy of the vLLM package on any platform.
``bench fig09|fig10|fig12``  regenerate a paper figure; optionally write
                        gnuplot artifacts with ``--out DIR``.
``ablation <name>``     run one ablation (pull-storm, s3-routing,
                        startup, quantization, parallelism).
``fleet``               open-loop elastic-fleet scenario: diurnal traffic
                        plus a flash crowd, autoscaled across platforms;
                        optionally write the JSON scorecard with
                        ``--out FILE``.
``chaos``               run the fault-injection scenario matrix on HPC
                        and/or Kubernetes fleets and emit the
                        deterministic ``chaos_scorecard.json``.
``campaign``            expand a declarative scenario grid (platform x
                        schedule x chaos x seed x ...) and run every
                        cell across a ``multiprocessing`` pool; emits
                        ``campaign_scorecard.json``, byte-identical for
                        any ``--workers`` value.
``sessions``            multi-turn conversational day: session starts on
                        an arrival schedule, turns growing each prompt
                        from the prior context, KV prefix caching and
                        cache-affinity routing; prints the per-turn TTFT
                        split and cache hit rates.
``obs``                 observability demo: run a short fleet scenario
                        with span tracing on and print the per-phase
                        latency breakdown, the top-N slowest requests,
                        and the registry/span/scrape digests; opt-in
                        wall-clock self-profile (``--profile``) and
                        Chrome-trace export (``--trace-out``).
``lint``                determinism & sim-discipline static analysis:
                        wall-clock reads, global RNG, unordered set
                        iteration, env reads outside the typed-config
                        layer, blocking sleeps, private kernel state
                        (see ``docs/static-analysis.md``).
``site``                print the converged-site inventory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import CaseStudyWorkflow, build_sandia_site
from .core.translate import command_text
from .units import fmt_duration

QUANT = "RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16"
SCOUT = "meta-llama/Llama-4-Scout-17B-16E-Instruct"


def _cmd_site(args: argparse.Namespace) -> int:
    site = build_sandia_site(seed=args.seed)
    print("converged site (paper Fig. 1):")
    for name, platform in sorted(site.platforms.items()):
        kind = "HPC" if hasattr(platform, "wlm") else "Kubernetes"
        sched = platform.wlm.name if hasattr(platform, "wlm") else "k8s"
        print(f"  {name:10s} {kind:10s} scheduler={sched:6s} "
              f"nodes={len(platform.nodes):3d} "
              f"gpu={platform.gpu_spec.name} x{platform.gpus_per_node}")
    print(f"  S3: {site.s3.endpoint} "
          f"({', '.join(s.name for s in site.s3.sites)})")
    print(f"  registries: {site.gitlab.name} -> mirrors -> {site.quay.name}")
    print(f"  models on hub: {len(site.hub.repos)}")
    return 0


def _cmd_quickstart(args: argparse.Namespace) -> int:
    site = build_sandia_site(seed=args.seed)
    wf = CaseStudyWorkflow(site)
    out = wf.run_quick_demo()
    print(f"HTTP {out['status']}; usage {out['response']['usage']}")
    print(f"simulated time: {fmt_duration(site.kernel.now)}")
    return 0 if out["status"] == 200 else 1


def _cmd_deploy(args: argparse.Namespace) -> int:
    site = build_sandia_site(seed=args.seed)
    wf = CaseStudyWorkflow(site)
    model = args.model
    if args.platform == "goodall":
        wf.admin_seed_s3(model)
    else:
        wf.admin_seed_model(model, args.platform)

    def go(env):
        deployment = yield from wf.deploy_model(
            args.platform, model, tensor_parallel_size=args.tp,
            runtime_name=args.runtime)
        return deployment

    deployment = wf.run(go(site.kernel))
    print(f"deployed {model}")
    print(f"  platform:  {deployment.platform_name}")
    print(f"  mechanism: {deployment.mechanism}")
    print(f"  endpoint:  {deployment.ready_endpoint}")
    if deployment.mechanism == "helm":
        print("  values:")
        print(json.dumps(deployment.artifact, indent=2, default=str))
    else:
        print("  equivalent command:")
        print("    " + command_text(deployment.artifact).replace(
            "\n", "\n    "))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .experiments import run_fig09, run_fig10, run_fig12
    runner = {"fig09": lambda: run_fig09(n_requests=args.requests, runs=2),
              "fig10": lambda: run_fig10(n_requests=args.requests,
                                         hops_runs=2, goodall_runs=1),
              "fig12": lambda: run_fig12(n_requests=args.requests)}
    result = runner[args.figure]()
    print(result.report())
    if args.out:
        from .experiments.artifacts import write_figure_artifacts
        paths = write_figure_artifacts(result, args.out)
        print(f"\nwrote {len(paths)} artifact files to {args.out}")
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from .experiments import (run_parallelism_ablation, run_pull_storm,
                              run_quantization_ablation, run_s3_routing,
                              run_startup_times)
    runner = {
        "pull-storm": lambda: run_pull_storm(args.nodes),
        "s3-routing": run_s3_routing,
        "startup": run_startup_times,
        "quantization": run_quantization_ablation,
        "parallelism": run_parallelism_ablation,
    }
    print(json.dumps(runner[args.name](), indent=2))
    return 0


def _fleet_spec(args: argparse.Namespace):
    """The ``repro fleet`` flags as a declarative ScenarioSpec."""
    from .campaign import ScenarioSpec, ScheduleSpec, SiteSpec
    from .fleet import AutoscalerConfig, DisaggSpec, SloSpec
    platforms = tuple(p.strip() for p in args.platforms.split(",")
                      if p.strip())
    return ScenarioSpec(
        name="cli-fleet", seed=args.seed, model=args.model,
        tensor_parallel_size=args.tp, platforms=platforms,
        policy=args.policy, initial_replicas=args.min_replicas,
        scheduler_policy=args.scheduler_policy,
        disagg=DisaggSpec(enabled=args.disagg,
                          prefill_replicas=args.prefill_replicas),
        horizon=args.hours * 3600.0,
        site=SiteSpec(hops_nodes=8, eldorado_nodes=4, goodall_nodes=4,
                      cee_nodes=2),
        schedule=ScheduleSpec(
            kind="diurnal", base_rps=args.base_rate,
            peak_rps=args.peak_rate, peak_hour=args.peak_hour,
            flash_mult=max(args.flash_mult, 1.0),
            flash_start=args.flash_hour * 3600.0,
            flash_duration=args.flash_minutes * 60.0),
        slo=SloSpec(ttft_target=args.ttft_slo, e2e_target=args.e2e_slo),
        autoscaler=AutoscalerConfig(
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas))


def _write_scorecard(report, out: str) -> None:
    """Write a fleet report's canonical JSON scorecard to ``out``."""
    import pathlib
    from .experiments.common import canonical_json_text
    path = pathlib.Path(out)
    path.write_text(canonical_json_text(report.to_json()))
    print(f"wrote scorecard to {path}")


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .campaign import play
    report, fleet, _digest = play(_fleet_spec(args))
    print(report.summary())
    print(f"simulated time: {fmt_duration(fleet.kernel.now)}")
    if args.out:
        _write_scorecard(report, args.out)
    return 0


def _sessions_spec(args: argparse.Namespace):
    """The ``repro sessions`` flags as a declarative ScenarioSpec."""
    from .campaign import ScenarioSpec, ScheduleSpec, SiteSpec
    from .fleet import AutoscalerConfig, SloSpec
    from .sessions import SessionSpec
    platforms = tuple(p.strip() for p in args.platforms.split(",")
                      if p.strip())
    caching = not args.no_prefix_cache
    return ScenarioSpec(
        name="cli-sessions", seed=args.seed, model=args.model,
        tensor_parallel_size=args.tp, platforms=platforms,
        policy=args.policy if caching else "least-outstanding",
        initial_replicas=args.min_replicas,
        horizon=args.hours * 3600.0,
        site=SiteSpec(hops_nodes=8, eldorado_nodes=4, goodall_nodes=4,
                      cee_nodes=2),
        schedule=ScheduleSpec(
            kind="diurnal", base_rps=args.base_rate,
            peak_rps=args.peak_rate, peak_hour=args.peak_hour),
        slo=SloSpec(ttft_target=args.ttft_slo, e2e_target=args.e2e_slo),
        autoscaler=AutoscalerConfig(min_replicas=args.min_replicas,
                                    max_replicas=args.max_replicas),
        sessions=SessionSpec(
            enabled=True, mean_turns=args.turns,
            min_turns=args.min_turns, max_turns=args.max_turns,
            think_mean_s=args.think, prefix_caching=caching),
        gpu_memory_utilization=args.gpu_memory_utilization)


def _cmd_sessions(args: argparse.Namespace) -> int:
    from .campaign import play
    report, fleet, _digest = play(_sessions_spec(args))
    print(report.summary())
    sessions = report.sessions or {}
    print(f"  sessions: {sessions.get('started', 0)} started, "
          f"{sessions.get('turns_ok', 0)}/"
          f"{sessions.get('turns_submitted', 0)} turns ok, "
          f"{sessions.get('cut_by_horizon', 0)} cut by horizon, "
          f"max context {sessions.get('context_tokens_max', 0)} tokens")
    print(f"simulated time: {fmt_duration(fleet.kernel.now)}")
    if args.out:
        _write_scorecard(report, args.out)
    return 0


def _parse_axis(text: str) -> tuple[str, list]:
    """``schedule.kind=poisson,diurnal`` -> (path, typed value list)."""
    path, sep, raw = text.partition("=")
    if not sep or not path or not raw:
        raise SystemExit(f"--axis must look like PATH=V1,V2,...: {text!r}")
    values: list = []
    for token in raw.split(","):
        token = token.strip()
        try:
            values.append(int(token))
        except ValueError:
            try:
                values.append(float(token))
            except ValueError:
                values.append(token)
    return path, values


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import (CampaignGrid, CampaignRunner, demo_grid,
                           disagg_grid, scorecard_text, sessions_grid,
                           smoke_grid)
    if args.spec:
        grid = CampaignGrid.from_file(args.spec)
    elif args.smoke:
        grid = smoke_grid(seed=args.seed)
    elif args.sessions:
        grid = sessions_grid(seed=args.seed)
    elif args.disagg:
        grid = disagg_grid(seed=args.seed)
    else:
        grid = demo_grid(seed=args.seed)
    if args.rate_scale != 1.0:
        import dataclasses
        if args.rate_scale <= 0:
            raise SystemExit("--rate-scale must be positive")
        sched = grid.base.schedule
        grid.base = dataclasses.replace(grid.base, schedule=dataclasses.replace(
            sched, rate_rps=sched.rate_rps * args.rate_scale,
            base_rps=sched.base_rps * args.rate_scale,
            peak_rps=sched.peak_rps * args.rate_scale))
    for axis in args.axis or []:
        path, values = _parse_axis(axis)
        grid.axes[path] = values
    cells = grid.expand()
    print(f"campaign {grid.name!r}: {len(cells)} cells "
          f"({' x '.join(f'{len(v)} {k}' for k, v in sorted(grid.axes.items()))})"
          if grid.axes else
          f"campaign {grid.name!r}: {len(cells)} cells")
    if args.list:
        for spec, _axes in cells:
            print(f"  {spec.spec_hash()}  {spec.name}")
        return 0

    def on_cell(row: dict) -> None:
        if "error" in row:
            print(f"  FAILED {row['cell']}: {row['error']}")
        else:
            print(f"  done {row['cell']}: arrivals={row['arrivals']} "
                  f"attainment={row['attainment']:.2%} "
                  f"replicas<= {row['peak_replicas']}")

    runner = CampaignRunner(grid, workers=args.workers)
    scorecard = runner.run(on_cell=on_cell)
    summary = scorecard["summary"]
    mttr = summary["mttr_mean_s"]
    print(f"\n{summary['cells']} cells ({summary['failed']} failed), "
          f"{summary['arrivals_total']} arrivals, "
          f"attainment mean={summary['attainment_mean']}, "
          f"chaos {summary['recovered']}/{summary['chaos_cells']} "
          f"recovered, mttr mean="
          f"{'n/a' if mttr is None else f'{mttr}s'}")
    if args.out:
        import pathlib
        path = pathlib.Path(args.out)
        path.write_text(scorecard_text(scorecard))
        print(f"wrote scorecard to {path}")
    return 1 if summary["failed"] else 0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted list."""
    import math
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return values[rank - 1]


def _cmd_obs(args: argparse.Namespace) -> int:
    from .campaign import ScenarioSpec, ScheduleSpec, SiteSpec, play
    from .fleet import AutoscalerConfig, SloSpec
    from .obs import CriticalPathAnalyzer, IncidentLog, chrome_trace, profiler
    from .obs.critical_path import _union_length

    spec = ScenarioSpec(
        name="cli-obs", seed=args.seed,
        platforms=("hops",), initial_replicas=2,
        horizon=args.minutes * 60.0,
        site=SiteSpec(hops_nodes=6, eldorado_nodes=2, goodall_nodes=4,
                      cee_nodes=1),
        schedule=ScheduleSpec(kind="poisson", rate_rps=args.rate),
        slo=SloSpec(ttft_target=10.0, e2e_target=120.0),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3))
    if args.profile:
        profiler.reset()
        profiler.enable()
    report, fleet, _digest = play(spec)
    if args.profile:
        profiler.disable()

    spans = fleet.kernel.obs.spans
    print(report.summary())
    print(f"simulated time: {fmt_duration(fleet.kernel.now)}")

    # Per-phase latency breakdown across every traced request.
    print("\nper-phase latency breakdown:")
    print(f"  {'phase':8s} {'count':>7s} {'mean_s':>9s} "
          f"{'p95_s':>9s} {'max_s':>9s} {'share':>7s}")
    # A route span covers its engine phases: count only what they leave.
    by_trace = spans.traces()
    phases: dict[str, list[float]] = {}
    for span in spans.finished:
        if span.name in ("route", "queue", "prefill", "decode"):
            seconds = span.duration
            if span.name == "route":
                seconds -= _union_length([
                    (max(s.start, span.start), min(s.end, span.end))
                    for s in by_trace[span.trace_id]
                    if s.name in ("queue", "prefill", "kv_transfer", "decode")
                    and min(s.end, span.end) > max(s.start, span.start)])
            phases.setdefault(span.name, []).append(seconds)
    total = sum(sum(v) for v in phases.values()) or 1.0
    for name in ("route", "queue", "prefill", "decode"):
        durations = sorted(phases.get(name, []))
        if not durations:
            continue
        print(f"  {name:8s} {len(durations):7d} "
              f"{sum(durations) / len(durations):9.3f} "
              f"{_percentile(durations, 95.0):9.3f} "
              f"{durations[-1]:9.3f} "
              f"{sum(durations) / total:6.1%}")

    # The slowest end-to-end requests, with where each spent its time.
    roots = sorted((s for s in spans.finished if s.name == "request"),
                   key=lambda s: -s.duration)[:args.top]
    print(f"\ntop {len(roots)} slowest requests:")
    for root in roots:
        parts = ", ".join(
            f"{child.name}={child.duration:.3f}s"
            for child in by_trace.get(root.trace_id, [])
            if child.name in ("queue", "prefill", "decode"))
        print(f"  trace {root.trace_id}: {root.duration:.3f}s "
              f"(tenant={root.attrs.get('tenant')}, {parts})")

    # Critical-path attribution: which phase dominates each latency
    # cohort, computed from the same span trees as the tables above.
    cp = CriticalPathAnalyzer(spans).report()
    print()
    print(cp.table("e2e"))

    if report.obs is not None:
        print("\ndigests:")
        for key, value in sorted(report.obs["digests"].items()):
            print(f"  {key}: {value}")
        scrape = report.obs.get("scrape")
        if scrape:
            print(f"  scrape: {scrape['digest']} "
                  f"({scrape['scrapes']} scrapes "
                  f"@ {scrape['interval']:.0f}s)")

    if args.alerts:
        print("\nalert timeline:")
        if fleet.alerts is None:
            print("  (alert evaluation disabled)")
        else:
            for event in fleet.alerts.events:
                print(f"  {fmt_duration(event.time):>10s} "
                      f"{event.state:9s} {event.rule} "
                      f"(value={event.value:.4g})")
            if not fleet.alerts.events:
                print("  (no alert transitions: every rule stayed green)")
            print(f"  rules={len(fleet.alerts.rules)} "
                  f"fired={fleet.alerts.fired_count()} "
                  f"digest={fleet.alerts.digest()}")

    if args.incidents:
        print()
        if fleet.alerts is None:
            print("incident timeline: (alert evaluation disabled)")
        else:
            log = IncidentLog.build(
                alerts=fleet.alerts.events,
                scales=[(e.time, e.action,
                         f"{e.replicas_before}->{e.replicas_after}")
                        for e in report.scale_events])
            print(log.summary())

    if args.profile:
        print("\nwall-clock self-profile:")
        print(profiler.report())
        print("flamegraph (collapsed stacks, µs):")
        print(profiler.flamegraph())

    if args.trace_out:
        import pathlib
        doc = chrome_trace(spans, profiler if args.profile else None)
        path = pathlib.Path(args.trace_out)
        path.write_text(json.dumps(doc, sort_keys=True))
        print(f"wrote Chrome trace ({len(doc['traceEvents'])} events) "
              f"to {path} — open in chrome://tracing or ui.perfetto.dev")
    if args.out:
        _write_scorecard(report, args.out)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import run_matrix
    from .chaos.runner import scorecard_text
    platforms = tuple(args.platform or ("hpc", "k8s"))
    mode = "long" if args.long else "quick"
    print(f"chaos matrix: platforms={list(platforms)} mode={mode} "
          f"seed={args.seed}")
    scorecard = run_matrix(
        platforms, seed=args.seed, mode=mode, scenarios=args.scenario,
        on_case=lambda row, res: print("  " + res.summary()))
    summary = scorecard["summary"]
    if summary["cases"] == 0:
        print("no catalog scenario matched the requested platform/"
              "scenario filters; nothing was tested", file=sys.stderr)
        return 2
    print(f"\n{summary['recovered']}/{summary['cases']} scenarios "
          f"recovered; mttr mean={summary['mttr_mean_s']}s "
          f"max={summary['mttr_max_s']}s; "
          f"lost={summary['requests_lost_total']} "
          f"retried={summary['requests_retried_total']}; "
          f"alerts detected {summary['alert_detected']}/"
          f"{summary['cases']} "
          f"(mean +{summary['alert_delay_mean_s']}s, "
          f"false={summary['false_alerts_total']})")
    if args.out:
        import pathlib
        path = pathlib.Path(args.out)
        path.write_text(scorecard_text(scorecard))
        print(f"wrote scorecard to {path}")
    return 0 if summary["recovered"] == summary["cases"] else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.runner import main as lint_main
    return lint_main(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated converged HPC/K8s GenAI serving "
                    "(SC-W'25 reproduction)")
    parser.add_argument("--seed", type=int, default=42)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("site", help="print the converged-site inventory")
    sub.add_parser("quickstart", help="deploy + one query")

    deploy = sub.add_parser("deploy", help="unified deploy of vLLM")
    deploy.add_argument("--platform", required=True,
                        choices=["hops", "eldorado", "goodall", "cee"])
    deploy.add_argument("--model", default=QUANT)
    deploy.add_argument("--tp", type=int, default=2,
                        help="tensor parallel size")
    deploy.add_argument("--runtime", default=None,
                        choices=[None, "podman", "apptainer"])

    bench = sub.add_parser("bench", help="regenerate a paper figure")
    bench.add_argument("figure", choices=["fig09", "fig10", "fig12"])
    bench.add_argument("--requests", type=int, default=200,
                       help="queries per sweep point (paper: 1000)")
    bench.add_argument("--out", default=None,
                       help="write gnuplot .dat artifacts to this dir")

    ablation = sub.add_parser("ablation", help="run one ablation")
    ablation.add_argument("name", choices=["pull-storm", "s3-routing",
                                           "startup", "quantization",
                                           "parallelism"])
    ablation.add_argument("--nodes", type=int, default=8)

    fleet = sub.add_parser(
        "fleet", help="open-loop elastic-fleet scenario with autoscaling")
    fleet.add_argument("--model", default=QUANT)
    fleet.add_argument("--tp", type=int, default=2,
                       help="tensor parallel size per replica")
    fleet.add_argument("--platforms", default="hops,goodall",
                       help="comma-separated replica placement targets")
    fleet.add_argument("--policy", default="least-outstanding",
                       choices=["round-robin", "least-outstanding",
                                "cache-affinity"])
    fleet.add_argument("--scheduler-policy", default="fcfs",
                       choices=["fcfs", "priority", "chunked"],
                       help="engine admission policy on every replica")
    fleet.add_argument("--disagg", action="store_true",
                       help="disaggregated serving: a fixed prefill pool "
                            "plus an elastic decode pool, KV handoffs "
                            "over the fabric")
    fleet.add_argument("--prefill-replicas", type=int, default=1,
                       help="prefill-pool size under --disagg")
    fleet.add_argument("--hours", type=float, default=6.0,
                       help="scenario length in simulated hours")
    fleet.add_argument("--base-rate", type=float, default=0.05,
                       help="night-time arrival rate, req/s")
    fleet.add_argument("--peak-rate", type=float, default=0.25,
                       help="diurnal peak arrival rate, req/s")
    fleet.add_argument("--peak-hour", type=float, default=3.0,
                       help="diurnal peak (simulated clock hour)")
    fleet.add_argument("--flash-hour", type=float, default=3.0,
                       help="flash-crowd start (simulated clock hour)")
    fleet.add_argument("--flash-minutes", type=float, default=30.0)
    fleet.add_argument("--flash-mult", type=float, default=60.0,
                       help="flash-crowd rate multiplier (1 disables)")
    fleet.add_argument("--min-replicas", type=int, default=1)
    fleet.add_argument("--max-replicas", type=int, default=4)
    fleet.add_argument("--ttft-slo", type=float, default=10.0,
                       help="TTFT target, seconds")
    fleet.add_argument("--e2e-slo", type=float, default=120.0,
                       help="end-to-end latency target, seconds")
    fleet.add_argument("--out", default=None,
                       help="write the JSON scorecard to this file")

    sessions = sub.add_parser(
        "sessions", help="multi-turn conversational day with KV prefix "
                         "caching and cache-affinity routing")
    sessions.add_argument("--model", default=QUANT)
    sessions.add_argument("--tp", type=int, default=2,
                          help="tensor parallel size per replica")
    sessions.add_argument("--platforms", default="hops,goodall",
                          help="comma-separated replica placement targets")
    sessions.add_argument("--policy", default="cache-affinity",
                          choices=["round-robin", "least-outstanding",
                                   "cache-affinity"])
    sessions.add_argument("--hours", type=float, default=6.0,
                          help="scenario length in simulated hours")
    sessions.add_argument("--base-rate", type=float, default=0.02,
                          help="night-time session starts/s")
    sessions.add_argument("--peak-rate", type=float, default=0.12,
                          help="diurnal peak session starts/s")
    sessions.add_argument("--peak-hour", type=float, default=3.0,
                          help="diurnal peak (simulated clock hour)")
    sessions.add_argument("--turns", type=float, default=5.0,
                          help="mean turns per session")
    sessions.add_argument("--min-turns", type=int, default=1)
    sessions.add_argument("--max-turns", type=int, default=16)
    sessions.add_argument("--think", type=float, default=30.0,
                          help="mean think time between turns, seconds")
    sessions.add_argument("--no-prefix-cache", action="store_true",
                          help="disable KV prefix caching (and fall back "
                               "to least-outstanding routing)")
    sessions.add_argument("--gpu-memory-utilization", type=float,
                          default=0.90,
                          help="vLLM KV-memory fraction (cache size knob)")
    sessions.add_argument("--min-replicas", type=int, default=1)
    sessions.add_argument("--max-replicas", type=int, default=4)
    sessions.add_argument("--ttft-slo", type=float, default=10.0)
    sessions.add_argument("--e2e-slo", type=float, default=120.0)
    sessions.add_argument("--out", default=None,
                          help="write the JSON scorecard to this file")

    obs = sub.add_parser(
        "obs", help="observability demo: span breakdowns, slowest "
                    "requests, self-profile, Chrome-trace export")
    obs.add_argument("--minutes", type=float, default=30.0,
                     help="scenario length in simulated minutes")
    obs.add_argument("--rate", type=float, default=0.5,
                     help="Poisson arrival rate, req/s")
    obs.add_argument("--top", type=int, default=5,
                     help="how many slowest requests to show")
    obs.add_argument("--profile", action="store_true",
                     help="enable the wall-clock self-profiler and print "
                          "the per-subsystem report + text flamegraph")
    obs.add_argument("--alerts", action="store_true",
                     help="print the SLO alert timeline (pending/firing/"
                          "resolved transitions) and the rule-set digest")
    obs.add_argument("--incidents", action="store_true",
                     help="print the merged incident timeline (alerts + "
                          "autoscaler actions)")
    obs.add_argument("--trace-out", default=None,
                     help="write a Chrome-trace/Perfetto JSON file here")
    obs.add_argument("--out", default=None,
                     help="write the JSON scorecard to this file")

    chaos = sub.add_parser(
        "chaos", help="fault-injection scenario matrix with resilience "
                      "scorecards")
    chaos.add_argument("--platform", action="append",
                       choices=["hpc", "k8s"],
                       help="platform kind to test (repeatable; "
                            "default: both)")
    chaos.add_argument("--scenario", action="append",
                       help="run only these catalog scenarios "
                            "(repeatable; default: full catalog)")
    chaos.add_argument("--long", action="store_true",
                       help="nightly long-run mode (4 h horizon, longer "
                            "faults, heavier traffic)")
    chaos.add_argument("--out", default=None,
                       help="write chaos_scorecard.json here")

    campaign = sub.add_parser(
        "campaign", help="expand a scenario grid and run every cell "
                         "across a worker pool")
    campaign.add_argument("--spec", default=None,
                          help="campaign file (YAML or JSON: base spec + "
                               "axes + explicit cells)")
    campaign.add_argument("--axis", action="append", metavar="PATH=V1,V2",
                          help="override/add one sweep axis (repeatable), "
                               "e.g. schedule.kind=poisson,diurnal")
    campaign.add_argument("--workers", type=int, default=1,
                          help="process-pool size (1 runs inline; the "
                               "scorecard is identical either way)")
    campaign.add_argument("--smoke", action="store_true",
                          help="built-in 4-cell CI grid instead of the "
                               "24-cell demo grid")
    campaign.add_argument("--sessions", action="store_true",
                          help="built-in 9-cell conversational grid "
                               "(turns x think-time x prefix cache)")
    campaign.add_argument("--disagg", action="store_true",
                          help="built-in 8-cell serving-architecture "
                               "grid (unified vs disaggregated x load "
                               "x seed)")
    campaign.add_argument("--rate-scale", type=float, default=1.0,
                          help="multiply every arrival rate in the "
                               "grid's base schedule (load scaling for "
                               "hot-path benchmarking)")
    campaign.add_argument("--list", action="store_true",
                          help="print the expanded cells and exit")
    campaign.add_argument("--out", default=None,
                          help="write campaign_scorecard.json here")

    lint = sub.add_parser(
        "lint", help="determinism & sim-discipline static analysis "
                     "(wall-clock reads, global RNG, unordered set "
                     "iteration, blocking sleeps, ...)")
    from .analysis.runner import add_lint_arguments
    add_lint_arguments(lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "site": _cmd_site,
        "quickstart": _cmd_quickstart,
        "deploy": _cmd_deploy,
        "bench": _cmd_bench,
        "ablation": _cmd_ablation,
        "fleet": _cmd_fleet,
        "sessions": _cmd_sessions,
        "obs": _cmd_obs,
        "chaos": _cmd_chaos,
        "campaign": _cmd_campaign,
        "lint": _cmd_lint,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
