"""Differential oracle for critical-path attribution.

The analyzer reads the span store in one pass over flat per-request
columns.  The frozen reference below is the per-request object version
it replaced: a ``_Request`` with two phase dicts per request, ranked and
summed cohort by cohort.  Hypothesis generates span stores written
through ``emit`` and ``emit_many``, some with span ids minted by
``start_span`` before the spans are written, in a shuffled order, and
the two must agree on every byte of ``to_json()`` — on the raw store,
and again on a second pass after the reference has read it through
``SpanRecorder.finished``'s views (which leave the store unchanged).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import play
from repro.campaign.catalogue import sessions_grid
from repro.campaign.spec import ChaosEventSpec
from repro.obs.critical_path import (_COHORTS, PHASES, CriticalPathAnalyzer,
                                     CriticalPathReport, _union_length)
from repro.obs.spans import REQUEST, SpanRecorder
from repro.simkernel import SimKernel
from tests.obs.conftest import emit_named, emit_request

# -- frozen reference -----------------------------------------------------------

_PHASE_NAMES = frozenset(PHASES) - {"retry"}


class _Request:
    __slots__ = ("trace_id", "e2e", "ttft", "phases", "ttft_phases")

    def __init__(self, trace_id, e2e, ttft, phases, ttft_phases):
        self.trace_id = trace_id
        self.e2e = e2e
        self.ttft = ttft
        self.phases = phases
        self.ttft_phases = ttft_phases


def _decompose(spans):
    root = None
    for span in spans:
        if span.name == "request" and span.parent_id is None:
            root = span
            break
    if root is None:
        return None
    if not bool(root.attrs.get("ok", True)):
        return None
    r_start, r_end = root.start, root.end
    e2e = r_end - r_start
    phases = dict.fromkeys(PHASES, 0.0)
    ttft_phases = dict.fromkeys(PHASES, 0.0)
    covered = []
    ttft_end = r_start
    for span in spans:
        name = span.name if span.name in _PHASE_NAMES else (
            "retry" if span.name == "attempt" else None)
        if name is None:
            continue
        start = max(span.start, r_start)
        end = min(span.end, r_end)
        if end <= start:
            continue
        phases[name] += end - start
        covered.append((start, end))
        if span.name in ("prefill", "kv_transfer") and end > ttft_end:
            ttft_end = end
    ttft = ttft_end - r_start
    for span in spans:
        name = span.name if span.name in _PHASE_NAMES else (
            "retry" if span.name == "attempt" else None)
        if name is None:
            continue
        start = max(span.start, r_start)
        end = min(span.end, ttft_end)
        if end > start:
            ttft_phases[name] += end - start
    phases["other"] = max(0.0, e2e - _union_length(covered))
    return _Request(root.trace_id, e2e, ttft, phases, ttft_phases)


def _aggregate(requests, metric):
    key = (lambda r: (r.ttft, r.trace_id)) if metric == "ttft" \
        else (lambda r: (r.e2e, r.trace_id))
    ranked = sorted(requests, key=key)
    n = len(ranked)
    out = {}
    groups = {name: [] for name, _ in _COHORTS}
    for i, request in enumerate(ranked):
        frac = (i + 1) / n
        for name, ceiling in _COHORTS:
            if frac <= ceiling or name == "p99":
                groups[name].append(request)
                break
    for name, members in [("all", ranked)] + list(groups.items()):
        out[name] = _cohort(members, metric)
    return out


def _cohort(members, metric):
    names = PHASES + ("other",)
    n = len(members)
    if not n:
        return {"n": 0, "mean_s": 0.0, "phase_s": {}, "share": {},
                "top_phase": ""}
    phase_sums = dict.fromkeys(names, 0.0)
    total = 0.0
    for request in members:
        if metric == "ttft":
            total += request.ttft
            for name in PHASES:
                phase_sums[name] += request.ttft_phases[name]
        else:
            total += request.e2e
            for name in PHASES:
                phase_sums[name] += request.phases[name]
    if metric == "ttft":
        covered = sum(phase_sums[name] for name in PHASES)
        phase_sums["other"] = max(0.0, total - covered)
    else:
        for request in members:
            phase_sums["other"] += request.phases["other"]
    top = max(names, key=lambda name: (phase_sums[name], name))
    return {
        "n": n,
        "mean_s": round(total / n, 6),
        "phase_s": {name: round(phase_sums[name] / n, 6)
                    for name in names},
        "share": {name: (round(phase_sums[name] / total, 6)
                         if total > 0 else 0.0)
                  for name in names},
        "top_phase": top,
    }


def _reference(recorder):
    by_trace = {}
    for span in recorder.finished:
        by_trace.setdefault(span.trace_id, []).append(span)
    requests = []
    skipped = 0
    for trace_id in by_trace:
        decomposed = _decompose(by_trace[trace_id])
        if decomposed is None:
            skipped += 1
        else:
            requests.append(decomposed)
    cohorts = {}
    if requests:
        cohorts = {"ttft": _aggregate(requests, "ttft"),
                   "e2e": _aggregate(requests, "e2e")}
    return CriticalPathReport(len(requests), skipped, cohorts)


# -- generated span stores ------------------------------------------------------

#: A coarse grid makes tied e2e/ttft values common; arbitrary floats,
#: some large enough to round away small addends, make the order of
#: float summation observable in the rounded cohort values.
TIMES = st.one_of(st.integers(0, 16).map(lambda q: q / 4),
                  st.floats(0.0, 20.0, allow_nan=False),
                  st.floats(1e15, 1e17, allow_nan=False))
CHILD_NAMES = st.sampled_from(
    ("queue", "prefill", "kv_transfer", "decode", "attempt", "route",
     "request", "session"))
FORMS = st.sampled_from(("emit", "many", "span"))

CHILD = st.tuples(CHILD_NAMES, TIMES, TIMES, FORMS)
TRACE = st.fixed_dictionaries({
    "root": st.sampled_from(("request", "request", "session")),
    "ok": st.sampled_from((True, False, True)),
    "start": TIMES, "end": TIMES,
    "children": st.lists(CHILD, max_size=6),
})


def _build(traces, rnd):
    """Start every trace, then write all spans in a shuffled order."""
    rec = SpanRecorder(SimKernel(seed=1))
    rec.enabled = True
    closes = []
    for trace in traces:
        start, end = trace["start"], trace["end"]
        tid, root_sid = rec.start_trace()
        if trace["root"] == "request":
            closes.append(lambda tid=tid, sid=root_sid, ok=trace["ok"],
                          s=start, e=end: emit_request(rec, tid, sid, s, e,
                                                       ok))
        else:
            closes.append(lambda tid=tid, sid=root_sid, s=start, e=end:
                          emit_named(rec, "session", tid, sid, 0, s, e))
        for name, c_start, c_end, form in trace["children"]:
            if form == "span":
                sid = rec.start_span()
                closes.append(lambda tid=tid, root=root_sid, sid=sid, n=name,
                              s=c_start, e=c_end: _child(rec, n, tid, sid,
                                                         root, s, e))
            elif form == "many":
                # The engine trio: an empty queue, prefill over the
                # child's bounds, then an empty decode.
                closes.append(lambda tid=tid, sid=root_sid, s=c_start,
                              e=c_end: rec.emit_many(tid, sid, s, s, e, e,
                                                     "e0", 8, 0, 4, 0))
            else:
                closes.append(lambda tid=tid, sid=root_sid, n=name, s=c_start,
                              e=c_end: _child(rec, n, tid, 0, sid, s, e))
    # Shuffling interleaves traces and lets children close after roots.
    rnd.shuffle(closes)
    for close in closes:
        close()
    return rec


def _child(rec, name, tid, sid, parent, start, end):
    """One child span; a ``request`` child keeps its parent."""
    if name == "request":
        rec.emit(REQUEST, tid, sid, parent, start, end, "t", True, 4)
    else:
        emit_named(rec, name, tid, sid, parent, start, end)


@settings(max_examples=150, deadline=None)
@given(traces=st.lists(TRACE, max_size=25), rnd=st.randoms(use_true_random=False))
def test_one_pass_matches_the_per_request_reference(traces, rnd):
    rec = _build(traces, rnd)
    raw = CriticalPathAnalyzer(rec).report().to_json()
    reference = _reference(rec).to_json()       # reads read-only span views
    assert raw == reference
    assert CriticalPathAnalyzer(rec).report().to_json() == reference


def test_a_child_closing_after_its_root_still_counts():
    rec = SpanRecorder(SimKernel(seed=1))
    rec.enabled = True
    tid, root_sid = rec.start_trace()
    emit_request(rec, tid, root_sid, 0.0, 10.0)
    emit_named(rec, "decode", tid, 0, root_sid, 2.0, 10.0)
    entry = CriticalPathAnalyzer(rec).report().cohorts["e2e"]["all"]
    assert entry["phase_s"]["decode"] == 8.0
    assert entry["phase_s"]["other"] == 2.0


def test_fleet_attribution_survives_materialization():
    """A session cell through a node crash: session roots, failover
    ``attempt`` spans and engine phases in one store, and reading the
    ``finished`` views leaves the attribution unchanged."""
    spec = dataclasses.replace(
        sessions_grid(7).base, name="oracle-sessions", horizon=600.0,
        chaos=(ChaosEventSpec("node_crash", inject_at=200.0,
                              fault_duration=150.0),))
    report, fleet, _digest = play(spec)
    spans = fleet.kernel.obs.spans
    spans.finished
    assert (CriticalPathAnalyzer(spans).report().digest()
            == report.obs["attribution"]["digest"])
    assert _reference(spans).digest() == report.obs["attribution"]["digest"]


def test_tied_values_rank_by_trace_id_across_a_cohort_edge():
    """Four requests with one e2e: the two lowest trace ids make p50
    even when the higher ids closed first."""
    rec = SpanRecorder(SimKernel(seed=1))
    rec.enabled = True
    ids = [rec.start_trace() for _ in range(4)]
    for k, (tid, sid) in reversed(list(enumerate(ids))):
        emit_named(rec, "prefill", tid, 0, sid, 0.0, 1.0 + k)
        emit_request(rec, tid, sid, 0.0, 10.0)
    report = CriticalPathAnalyzer(rec).report()
    assert report.to_json() == _reference(rec).to_json()
    assert report.cohorts["e2e"]["p50"]["phase_s"]["prefill"] == 1.5


def test_cohort_sums_add_in_rank_order():
    """A phase column whose sum depends on the order of addition: one
    huge value first in rank order, then ones that round away against
    it one at a time but not when added to each other first."""
    rec = SpanRecorder(SimKernel(seed=1))
    for k in range(24):
        tid, sid = rec.start_trace()
        emit_named(rec, "queue", tid, 0, sid, 0.0, 1e16 if k == 0 else 1.0)
        emit_request(rec, tid, sid, 0.0, 1e16 + 4.0 * k)
    report = CriticalPathAnalyzer(rec).report()
    assert report.to_json() == _reference(rec).to_json()


def test_touching_phases_merge_into_one_run():
    """Two phases that touch merge into one run of the union, whose
    length rounds differently from the sum of the two lengths."""
    a, b, c = 3.0, 1.061179966067107e16, 1.161406633128822e16
    assert (b - a) + (c - b) != c - a
    rec = SpanRecorder(SimKernel(seed=1))
    tid, sid = rec.start_trace()
    emit_named(rec, "queue", tid, 0, sid, a, b)
    emit_named(rec, "decode", tid, 0, sid, b, c)
    emit_request(rec, tid, sid, 0.0, 2e16)
    report = CriticalPathAnalyzer(rec).report()
    assert report.to_json() == _reference(rec).to_json()
    assert report.cohorts["e2e"]["all"]["phase_s"]["other"] == 2e16 - (c - a)


def test_the_first_closed_root_decides():
    """Of two parentless ``request`` spans in one trace, the one that
    closed first is the root: here an errored one, so the trace is
    skipped."""
    rec = SpanRecorder(SimKernel(seed=1))
    tid, sid = rec.start_trace()
    emit_named(rec, "decode", tid, 0, sid, 1.0, 2.0)
    emit_request(rec, tid, sid, 0.0, 3.0, ok=False)
    emit_request(rec, tid, 0, 0.0, 4.0)
    report = CriticalPathAnalyzer(rec).report()
    assert report.to_json() == _reference(rec).to_json()
    assert (report.requests, report.skipped) == (0, 1)
