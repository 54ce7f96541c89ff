"""Integration tests for the experiment drivers (reduced sizes).

The full-fidelity versions live in benchmarks/; here we verify the control
flow: crashes land where scripted, downtime kills the job mid-sweep, and
shapes hold at small scale.
"""

from __future__ import annotations

import pytest

from repro.experiments import (ascii_plot, run_fig12, run_pull_storm,
                               run_s3_routing)
from repro.experiments.fig09 import run_platform_sweeps
from repro.experiments.fig12 import run_405b_once
from repro.vllm import CrashAfterRequests, FaultPlan


def test_fig09_driver_shape_small():
    sweeps = run_platform_sweeps("hops", runs=1, n_requests=48,
                                 levels=(1, 16))
    assert len(sweeps) == 1
    sweep = sweeps[0]
    assert sweep.throughput_at(16) > 3 * sweep.throughput_at(1)
    assert sweep.points[0].result.completed == 48


def test_fig12_run_crash_path():
    plan = FaultPlan(CrashAfterRequests(60, reason="memory leak"))
    sweep, job, _ = run_405b_once("crash-run", n_requests=40,
                                  levels=(1, 4, 16), fault_plan=plan,
                                  seed=901)
    assert sweep.terminated_early is not None
    assert sweep.points[-1].result.crashed
    # Crashed during the second level (cumulative 60 > 40).
    assert sweep.points[-1].concurrency == 4


def test_fig12_run_downtime_path():
    # Startup takes ~900 s (shard deserialization); the c=1 level with 100
    # queries takes ~1400 s more.  A downtime at 2500 s lands in the second
    # sweep level: one point retained, job killed NODE_FAIL.
    sweep, job, _ = run_405b_once("downtime-run", n_requests=100,
                                  levels=(1, 4), downtime_at=2500.0,
                                  seed=902)
    assert sweep.terminated_early is not None
    assert "maintenance" in sweep.terminated_early
    assert job.state.value == "NODE_FAIL"
    assert len(sweep.points) == 1
    assert sweep.points[0].concurrency == 1


def test_fig12_clean_run_completes():
    sweep, job, ready_at = run_405b_once("clean-run", n_requests=30,
                                         levels=(1, 4), seed=903)
    assert sweep.terminated_early is None
    # The head's server measured its own startup: Ray, shards, init.
    assert 900.0 < ready_at < 1200.0
    assert len(sweep.points) == 2
    assert job.state.value == "COMPLETED"
    assert sweep.throughput_at(1) == pytest.approx(12.5, rel=0.2)


def test_pull_storm_driver():
    result = run_pull_storm(4)
    assert result["oci_slowdown"] == pytest.approx(4, rel=0.1)
    assert result["sif_storm_s"] < result["oci_storm_s"]


def test_s3_routing_driver():
    result = run_s3_routing()
    assert result["improvement"] >= 8


def test_ascii_plot_renders():
    from repro.bench.client import BenchmarkResult
    from repro.bench.sweep import SweepPoint, SweepResult
    sweep = SweepResult(label="demo")
    for c, tput in ((1, 100.0), (16, 800.0), (256, 2000.0)):
        r = BenchmarkResult(concurrency=c, n_requests=10, completed=10,
                            duration=10.0,
                            total_output_tokens=int(tput * 10))
        sweep.points.append(SweepPoint(concurrency=c, result=r))
    art = ascii_plot([sweep])
    assert "demo" in art and "tok/s" in art
