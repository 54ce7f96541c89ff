"""Unit tests for the per-layer profiler and the Chrome-trace exporter."""

from __future__ import annotations

import json
import pathlib

import pytest

import repro
import repro.core.deployer
import repro.obs.profile
import repro.simkernel
import repro.simkernel.kernel
import repro.simkernel.tracing
import repro.vllm.engine
import repro.vllm.kvcache
from repro.campaign import ScenarioSpec, ScheduleSpec, SiteSpec, run_cell
from repro.obs.export import chrome_trace, profile_events, span_events
from repro.obs.profile import LAYERS, Profiler, profiler
from repro.obs.spans import QUEUE, REQUEST, ROUTE_FAILED, SpanRecorder
from repro.simkernel import SimKernel

_LOOP = (repro.vllm.engine.__file__, 300, "_loop")
_LEN = ("~", 0, "<built-in method builtins.len>")
_DUMPS = ("/usr/lib/python3/json/__init__.py", 183, "dumps")
_ENCODE = ("~", 0, "<method 'encode' of 'Encoder' objects>")
_ORPHAN = ("/usr/lib/python3/heapq.py", 1, "merge")


def _stats() -> dict:
    """A cProfile ``stats`` dict: ``(cc, nc, tottime, cumtime, callers)``
    per function, each caller edge ``(cc, nc, tottime, cumtime)``."""
    return {
        _LOOP: (3, 3, 0.5, 0.9, {}),
        _LEN: (5, 5, 0.1, 0.1, {_LOOP: (5, 5, 0.1, 0.1)}),
        _DUMPS: (1, 1, 0.2, 0.3, {_LOOP: (1, 1, 0.2, 0.3)}),
        _ENCODE: (1, 1, 0.1, 0.1, {_DUMPS: (1, 1, 0.1, 0.1)}),
        _ORPHAN: (2, 2, 0.05, 0.05, {}),
    }


def test_profiler_nests_into_collapsed_paths():
    prof = Profiler()
    prof._fold(_stats())
    loop = "engine;repro.vllm.engine:_loop"
    assert set(prof.totals) == {"engine", loop, "python"}
    assert prof.totals[loop] == pytest.approx(0.5)
    assert prof.counts[loop] == 3
    # len() and json.dumps are charged to the layer of their repro caller.
    assert prof.totals["engine"] == pytest.approx(0.8)
    assert prof.counts["engine"] == 3 + 5 + 1
    # The encoder that json.dumps calls, and stdlib with no caller at
    # all, are python's.
    assert prof.totals["python"] == pytest.approx(0.15)
    assert prof.counts["python"] == 1 + 2
    # The layer rows add up to the whole profile.
    assert prof.counts["engine"] + prof.counts["python"] == sum(
        row[1] for row in _stats().values())


@pytest.mark.parametrize("module,path", [
    (repro.vllm.engine, "engine;repro.vllm.engine:f"),
    (repro.vllm.kvcache, "kvcache;repro.vllm.kvcache:f"),
    (repro.simkernel.kernel, "simkernel;repro.simkernel.kernel:f"),
    (repro.simkernel.tracing, "trace;repro.simkernel.tracing:f"),
    (repro.simkernel, "simkernel;repro.simkernel:f"),
    (repro.obs.profile, "analysis;repro.obs.profile:f"),
    (repro.core.deployer, "python;repro.core.deployer:f"),
])
def test_longest_module_prefix_names_the_layer(module, path):
    prof = Profiler()
    prof._fold({(module.__file__, 1, "f"): (1, 1, 0.25, 0.25, {})})
    assert prof.totals == {path.split(";")[0]: 0.25, path: 0.25}


def test_every_layer_prefix_names_a_module():
    root = pathlib.Path(repro.__file__).parent
    for prefix in LAYERS:
        assert ((root / prefix).is_dir()
                or (root / f"{prefix}.py").is_file()), prefix


def test_self_time_excludes_children():
    prof = Profiler()
    prof.totals = {"a": 1.0, "a;b": 0.3, "a;b;c": 0.1, "d": 0.5}
    prof.counts = {k: 1 for k in prof.totals}
    st = prof.self_times()
    assert st["a"] == pytest.approx(0.7)
    assert st["a;b"] == pytest.approx(0.2)
    assert st["a;b;c"] == pytest.approx(0.1)
    assert st["d"] == pytest.approx(0.5)


def _profiled_kernel_run(prof: Profiler) -> None:
    kernel = SimKernel(seed=1)
    prof.enable()
    for _ in range(7):
        kernel.timeout(1.0)
    kernel.run()
    prof.disable()


def test_report_flamegraph_and_reset():
    prof = Profiler()
    prof.disable()                      # never enabled: nothing to fold
    assert prof.totals == {} and not prof.enabled
    _profiled_kernel_run(prof)
    assert not prof.enabled
    assert prof.counts["simkernel;repro.simkernel.kernel:timeout"] == 7
    assert prof.counts["simkernel;repro.simkernel.kernel:step"] == 7
    text = prof.report()
    assert "self_ms" in text
    assert text.splitlines()[1].split()[0] == "simkernel"
    flame = prof.flamegraph()
    assert flame.splitlines()[0].split()[0] in prof.totals
    assert "simkernel;repro.simkernel.kernel:step " in flame
    prof.reset()
    assert prof.totals == {} and prof.counts == {}
    assert "no samples" in prof.report()


def test_profiling_leaves_the_run_unchanged():
    spec = ScenarioSpec(
        name="profiled", seed=5, horizon=300.0,
        site=SiteSpec(hops_nodes=4, eldorado_nodes=2, goodall_nodes=3,
                      cee_nodes=1),
        schedule=ScheduleSpec(kind="poisson", rate_rps=0.5))
    plain = run_cell(spec)
    profiler.reset()
    profiler.enable()
    try:
        profiled = run_cell(spec)
    finally:
        profiler.disable()
    assert not profiler.enabled
    assert profiled == plain
    assert plain["completed"] > 0
    assert profiler.counts["engine"] > 0 and profiler.counts["router"] > 0
    profiler.reset()


def _spans():
    rec = SpanRecorder(SimKernel(seed=1))
    rec.enabled = True
    trace_id, root_sid = rec.start_trace()
    rec.emit(ROUTE_FAILED, trace_id, 0, root_sid, 1.0, 1.0, 1)
    rec.emit(REQUEST, trace_id, root_sid, 0, 0.0, 3.0, "t", True, 2)
    rec.emit(QUEUE, trace_id, 0, 0, 0.0, 0.25)
    return rec


def test_span_events_are_complete_events_in_microseconds():
    rec = _spans()
    events = span_events(rec.finished)
    xs = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in xs} == {"request", "route", "queue"}
    root = next(e for e in xs if e["name"] == "request")
    assert root["pid"] == 1
    assert root["tid"] == 1                       # trace id as thread
    assert root["ts"] == 0.0
    assert root["dur"] == 3.0e6                   # 3 sim-seconds in µs
    assert root["args"] == {"tenant": "t", "ok": True, "output_tokens": 2}
    metas = [e for e in events if e["ph"] == "M"]
    assert metas and metas[0]["args"]["name"] == "trace 1"


def test_profile_events_layout_encodes_the_stack():
    prof = Profiler()
    prof.totals = {"a": 1.0, "a;b": 0.4, "a;c": 0.2, "d": 0.5}
    prof.counts = {k: 3 for k in prof.totals}
    events = [e for e in profile_events(prof) if e["ph"] == "X"]
    by_path = {e["args"]["path"]: e for e in events}
    assert by_path["a"]["tid"] == 1 and by_path["a;b"]["tid"] == 2
    # Children start where the parent starts; siblings stack after.
    assert by_path["a;b"]["ts"] == by_path["a"]["ts"]
    assert by_path["a;c"]["ts"] == by_path["a;b"]["ts"] + 0.4e6
    assert by_path["d"]["ts"] == by_path["a"]["ts"] + 1.0e6
    assert by_path["a"]["args"]["calls"] == 3


def test_chrome_trace_document_combines_both_sources():
    rec = _spans()
    prof = Profiler()
    _profiled_kernel_run(prof)
    doc = chrome_trace(rec, prof)
    assert doc["displayTimeUnit"] == "ms"
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert pids == {1, 2}
    layer_track = {(e["tid"], e["args"]["path"]) for e in doc["traceEvents"]
                   if e["pid"] == 2 and e["ph"] == "X"}
    assert (1, "simkernel") in layer_track
    assert (2, "simkernel;repro.simkernel.kernel:step") in layer_track
    json.dumps(doc)                    # viewer-loadable JSON
    spans_only = chrome_trace(rec)
    assert {e["pid"] for e in spans_only["traceEvents"]} == {1}
    assert chrome_trace()["traceEvents"] == []
