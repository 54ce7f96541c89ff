"""Figure 10 bench: Hops vs Goodall (2xH100-NVL), quantized Scout TP2.

Identical container image on both platforms; only the deployment mechanism
differs (Podman vs Helm).  Expected shape: near-identical curves with a
slight Goodall edge at high concurrency from the extra HBM.
"""

from __future__ import annotations

from repro.experiments import run_fig10

from conftest import record_series


def test_fig10_hops_vs_goodall(benchmark, fidelity):
    result = benchmark.pedantic(
        run_fig10,
        kwargs=dict(n_requests=fidelity["n_requests"],
                    hops_runs=fidelity["runs"], goodall_runs=1,
                    levels=fidelity["levels"]),
        rounds=1, iterations=1)
    record_series(benchmark, result)

    hops_runs = fidelity["runs"]
    hops = result.series[0]
    goodall = result.series[hops_runs]
    top = max(fidelity["levels"])
    # Similar platforms: within ~20% everywhere measured.
    for level in (1, 64, top):
        ratio = goodall.throughput_at(level) / hops.throughput_at(level)
        assert 0.8 < ratio < 1.25, (level, ratio)
    # The slight Goodall edge at the highest concurrency.
    assert goodall.throughput_at(top) > hops.throughput_at(top) * 0.98
