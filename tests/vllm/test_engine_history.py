"""The engine keeps run-long counters and only a bounded tail of
finished requests, so a long run holds no per-request history."""

from __future__ import annotations

from repro.hardware import gpu_spec
from repro.models import llama4_scout
from repro.obs import parse_exposition
from repro.simkernel import SimKernel
from repro.vllm import EngineArgs, LLMEngine, PerfModel, PerfProfile, RequestSpec

N = 640


def test_counters_cover_the_run_while_history_stays_bounded():
    kernel = SimKernel(seed=5)
    card = llama4_scout()
    gpu = gpu_spec("H100-SXM-80G")
    args = EngineArgs(model=card.name, tensor_parallel_size=4,
                      max_model_len=65536, max_num_seqs=1024)
    # A small KV budget forces preemptions among the co-resident batch.
    engine = LLMEngine(kernel, card, PerfModel(card, gpu, 4, profile=PerfProfile()),
                       args, 4096)
    engine.start()
    requests = []

    def feeder(env):
        for i in range(N):
            requests.append(engine.submit(
                RequestSpec(200 + 37 * (i % 11), 40 + 13 * (i % 7))))
            if i % 40 == 39:
                yield env.timeout(5.0)

    kernel.spawn(feeder(kernel))
    kernel.run(until=20000.0)
    assert all(r.done.triggered for r in requests)
    assert len(engine.completed) == 500
    assert list(engine.completed) == sorted(
        requests, key=lambda r: r.finished_at)[-500:]
    assert engine.completed_count == N
    preemptions = sum(r.preemptions for r in requests)
    assert preemptions > 0
    assert engine.completed_preemptions == preemptions
    metrics = engine.metrics()
    assert metrics["num_requests_completed"] == N
    assert metrics["num_preemptions_total"] == preemptions
    gauge = parse_exposition(kernel.obs.registry.exposition())[
        "engine_requests_completed_total"]
    assert sum(gauge.values()) == N
