"""Figure 12 bench: multi-node Llama 3.1 405B on 4 Hops nodes (TP4xPP4).

Three runs: a crash at the c=512 point (run 1), a clean completion
(run 2, 12.5 -> ~1250 tok/s), and a termination by scheduled maintenance
(run 3) — exactly the paper's reliability narrative.
"""

from __future__ import annotations

from repro.experiments import run_fig12

from conftest import record_series


def test_fig12_multinode_405b(benchmark, fidelity):
    levels = tuple(sorted(set(fidelity["levels"]) | {512}))
    result = benchmark.pedantic(
        run_fig12,
        kwargs=dict(n_requests=fidelity["n_requests"], levels=levels),
        rounds=1, iterations=1)
    record_series(benchmark, result)

    run1, run2, run3 = result.series
    # Run 1 crashes at the 512-concurrency point.
    assert run1.terminated_early is not None
    assert run1.points[-1].concurrency == 512
    assert run1.points[-1].result.crashed
    # Run 2 completes every level.
    assert run2.terminated_early is None
    assert len(run2.points) == len(levels)
    assert abs(run2.throughput_at(1) - 12.5) / 12.5 < 0.15
    peak = max(t for _, t in run2.series())
    if fidelity["n_requests"] >= 1000:
        assert 850 <= peak <= 1500  # paper 1256; see EXPERIMENTS.md
    else:
        # Reduced fidelity can't fill the batch; assert the shape only.
        assert peak > 30 * run2.throughput_at(1)
    # Run 3 is terminated early by maintenance with partial data.
    assert run3.terminated_early is not None
    assert "maintenance" in run3.terminated_early
    assert 0 < len(run3.points) < len(levels)
    # Multi-node single-stream is far below single-node Scout (Section 3.5).
    assert run2.throughput_at(1) < 103 / 3
