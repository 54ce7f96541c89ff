"""Figure 12: multi-node inference, Llama 3.1 405B on 4 Hops nodes.

TP4 within each node, PP4 across nodes, launched as a Slurm job that
boots a Ray cluster (paper Figure 11) and starts vLLM inside it.  Three
runs reproduce the paper's reliability story:

* run 1 crashes at the concurrency-512 sweep point (memory-leak fault);
* run 2 completes normally (12.5 -> ~1256 tok/s);
* run 3 is terminated early by a scheduled system downtime.
"""

from __future__ import annotations

from ..core import CaseStudyWorkflow, build_sandia_site
from ..errors import JobKilled
from ..cluster.profiles import perf_profile
from ..vllm import (CrashAfterRequests, EngineArgs, FaultPlan,
                    MultiNodeEngineLauncher)
from .common import FigureResult

B405 = "meta-llama/Llama-3.1-405B-Instruct"
PAPER_LEVELS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def run_405b_once(label: str, n_requests: int, levels,
                  fault_plan=None, downtime_at: float | None = None,
                  seed: int = 400):
    """One Fig.-12 run: Slurm job -> Ray -> multi-node vLLM -> sweep.

    Returns ``(sweep, job, ready_at)``: ``ready_at`` is when the head's
    ``vllm serve`` finished starting (None if it never did).
    """
    site = build_sandia_site(seed=seed, hops_nodes=6, eldorado_nodes=2,
                             goodall_nodes=2, cee_nodes=1)
    wf = CaseStudyWorkflow(site)
    wf.admin_seed_model(B405, "hops")
    args = EngineArgs(model=B405, tensor_parallel_size=4,
                      pipeline_parallel_size=4, max_model_len=65536)
    launcher = MultiNodeEngineLauncher(
        site.hops.podman, "vllm/vllm-openai:v0.9.1", args,
        site.hops.models_mount(),
        extras={"perf_profile": perf_profile("hops", "405b-multinode"),
                "fault_plan": fault_plan})

    collected: list = []
    servers: list = []

    def job_script(ctx):
        deployment = yield from launcher.launch(ctx.nodes)
        servers.append(deployment.server)
        ctx.defer(deployment.stop)
        sweep = yield from wf.benchmark_endpoint(
            deployment.endpoint, B405, levels=levels,
            n_requests=n_requests, label=label, client_host="hops-svc",
            on_point=collected.append)
        return sweep

    from ..wlm.base import JobSpec
    job = site.hops.wlm.submit(JobSpec(
        name=f"vllm-405b:{label}", nodes=4, time_limit=14 * 24 * 3600,
        script=job_script))
    if downtime_at is not None:
        # The paper's run 3 was already running when the downtime was
        # scheduled — announce the reservation only after the job starts
        # (otherwise conservative scheduling would simply hold the job
        # until after the window).
        def announce(env):
            yield job.started
            site.hops.wlm.add_reservation(
                start=max(downtime_at, env.now + 1.0), duration=12 * 3600,
                reason="scheduled maintenance")

        site.kernel.spawn(announce(site.kernel), name="downtime-announce")

    def driver(env):
        try:
            result = yield job.finished
            return result
        except JobKilled:
            from ..bench.sweep import SweepResult
            sweep = SweepResult(label=label, points=list(collected))
            sweep.terminated_early = (
                f"job ended {job.state.value} at t={env.now:.0f}s "
                f"({job.kill_reason or 'unknown'})")
            return sweep

    result = site.kernel.run(until=site.kernel.spawn(driver(site.kernel)))
    ready_at = servers[0].startup_finished_at if servers else None
    return result, job, ready_at


def run_fig12(n_requests: int = 1000,
              levels=(1, 4, 16, 64, 256, 512, 1024)) -> FigureResult:
    """Reproduce Figure 12 (three runs with the paper's outcomes)."""
    result = FigureResult(
        figure="Figure 12",
        title="Hops multi-node inference (Llama 3.1 405B, TP4 x PP4)",
    )

    # Run 1: crashes once cumulative load reaches into the c=512 point.
    crash_threshold = n_requests * (levels.index(512)) + n_requests // 3
    plan = FaultPlan(CrashAfterRequests(
        crash_threshold, reason="memory leak: engine OOM"))
    sweep1, job1, _ = run_405b_once("Hops HPC, Run 1 (hops 39-42)",
                                    n_requests, levels, fault_plan=plan,
                                    seed=401)
    result.series.append(sweep1)
    result.notes.append(
        f"run 1: {sweep1.terminated_early or 'completed (unexpected!)'}")

    # Run 2: clean.
    sweep2, job2, ready2 = run_405b_once("Hops HPC, Run 2 (hops 22-25)",
                                         n_requests, levels, seed=402)
    result.series.append(sweep2)

    # Run 3: killed by a scheduled downtime partway through the sweep.
    # The window opens half-way into the fifth sweep point by run 2's
    # clock: its server's measured startup plus its per-level durations.
    durations = [p.result.duration for p in sweep2.points]
    downtime_at = ((ready2 or 0.0) + sum(durations[:4])
                   + 0.5 * (durations[4] if len(durations) > 4 else 600.0))
    sweep3, job3, _ = run_405b_once("Hops HPC, Run 3 (hops 28, 37-38, 58)",
                                    n_requests, levels,
                                    downtime_at=downtime_at, seed=403)
    result.series.append(sweep3)
    result.notes.append(f"run 3: {sweep3.terminated_early}")
    result.notes.append(
        f"job states: run1={job1.state.value}, run2={job2.state.value}, "
        f"run3={job3.state.value}")
    if sweep2.points:
        result.notes.append(
            f"run 2 anchors: c=1 {sweep2.points[0].throughput:.1f} tok/s "
            f"(paper 12.5), peak "
            f"{max(t for _, t in sweep2.series()):.0f} tok/s (paper 1256)")
    return result
