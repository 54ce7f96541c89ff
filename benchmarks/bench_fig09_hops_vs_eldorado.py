"""Figure 9 bench: Hops (4xH100) vs El Dorado (4xMI300A), Scout BF16 TP4.

Regenerates the paper's throughput-vs-concurrency series for both HPC
platforms and records them in the benchmark report (``extra_info``).
Paper anchors: Hops 103 -> 4313 tok/s; El Dorado 48 -> 1899 tok/s.
"""

from __future__ import annotations

from repro.experiments import run_fig09

from conftest import record_series


def test_fig09_hops_vs_eldorado(benchmark, fidelity):
    result = benchmark.pedantic(
        run_fig09,
        kwargs=dict(n_requests=fidelity["n_requests"],
                    runs=fidelity["runs"], levels=fidelity["levels"]),
        rounds=1, iterations=1)
    record_series(benchmark, result)

    runs = fidelity["runs"]
    hops = result.series[0]
    eldo = result.series[runs]
    # Shape assertions: who wins, monotone rise, saturation.
    for level in (1, 64):
        assert hops.throughput_at(level) > 1.5 * eldo.throughput_at(level)
    assert hops.throughput_at(1) < hops.throughput_at(64)
    # Single-stream anchors hold even at reduced fidelity.
    assert abs(hops.throughput_at(1) - 103) / 103 < 0.15
    assert abs(eldo.throughput_at(1) - 48) / 48 < 0.15
    # Run-to-run variability is low (paper observation).
    if runs >= 2:
        a, b = result.series[0], result.series[1]
        for level in (1, 64):
            assert abs(a.throughput_at(level) - b.throughput_at(level)) \
                / a.throughput_at(level) < 0.1
