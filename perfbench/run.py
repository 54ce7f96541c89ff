#!/usr/bin/env python3
"""The repo benchmark: wall-clock and memory cost of simulated serving.

    python3 perfbench/run.py --workload poisson_steady --seed 1 \\
        --seconds 25 --trace 0

Run it from the repository root.  Each measured run is a fresh process
(``child.py``) that builds the workload's ``ScenarioSpec`` from the seed
and calls ``repro.campaign.runner.run_cell(spec)`` at its defaults:
observability on, GC on, fast-forward on.

``--trace 0`` repeats untraced runs until ``--seconds`` have passed and
at least ``MIN_RUNS`` runs are done, then reports the end-to-end
metrics (``END_TO_END``) as medians over the runs.  ``--trace 1`` makes
untraced runs for half of ``--seconds`` (at least one), then one run
traced from outside by ``layers.py``, and reports the per-layer metrics
(``PER_LAYER``) of the traced run, including ``tracing.overhead_ratio``:
traced wall time over the untraced median.

Timings are in reference seconds.  Throughout each run the child
samples the host's speed (``child.SpeedSampler``: about 1 ms of fixed
interpreter work that uses no code of the program, every 10 ms).  Each
timing has the sampling taken out and is then scaled by
``SAMPLE_REF_S`` over the mean sample time of its phase.  A faster
program lowers the timings; a slower or busier host slows the samples
and the run together and cancels out.  On the 2-core host the
benchmark was tuned on, wall time swung by up to 2x within seconds;
timing a probe only before and after a run left about 11% noise per
run, sampling during it about 3%.  The medians in unscaled seconds are
printed on a line of their own.

Every run is checked.  Its report-level outputs must equal
``pinned.json`` when the seed is pinned there, and must satisfy the
workload's invariants (request conservation, chaos recovery) for every
seed.  Report outputs, digests (trace, spans, metrics, scrape, alerts,
attribution, incidents) and fast-lane share must be equal across all
runs of one invocation, traced or not.  The lane share itself is not
fixed: a change that moves more requests onto the lane is a gain.  A run that
fails a check counts all of its simulated requests as failed.

Standard output: a machine fingerprint line, one JSON line per run, a
line labelling each metric as an exact ``count`` or a ``timing``, and
as its last line ``{"correct", "attempted", "failed", "metrics"}``.
``attempted``/``failed`` count simulated requests over all runs, so
``failed / attempted`` is the error ratio.  ``--short`` runs the
self-check's short-horizon variants, which have no pinned outputs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pinned.json"

WORKLOADS = ("poisson_steady", "pulse_idle", "sessions_crash", "disagg_heavy")
MIN_RUNS = 5
#: a single run must finish well inside the benchmark's 180 s limit
CHILD_TIMEOUT_S = 150.0
#: one host-speed sample's time on the host the benchmark was tuned on,
#: an Intel Xeon with 2 vCPUs, in its faster state
SAMPLE_REF_S = 0.00066
#: phase -> a run record's (gross time, time spent sampling, mean
#: sample time) keys
PHASES = {"wall": ("wall_s", "sampled_s", "sample_s"),
          "setup": ("setup_s", "setup_sampled_s", "setup_sample_s")}

END_TO_END = {"sim_rps": "1/s", "wall_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "simkernel.events": "count", "simkernel.events_per_req": "count/req",
    "simkernel.self_s": "s",
    "fleet.lane_share": "ratio", "fleet.calls": "count", "fleet.self_s": "s",
    "traffic.calls": "count", "traffic.self_s": "s",
    "router.picks": "count", "router.self_s": "s",
    "router.affinity_hit_ratio": "ratio",
    "engine.calls": "count", "engine.self_s": "s", "engine.jump_ratio": "ratio",
    "kvcache.calls": "count", "kvcache.self_s": "s",
    "kvcache.prefix_hit_ratio": "ratio",
    "slo.observes": "count", "slo.snapshots": "count", "slo.self_s": "s",
    "metrics.collects": "count", "metrics.self_s": "s",
    "scrape.scrapes": "count", "scrape.self_s": "s",
    "alerts.evaluations": "count", "alerts.self_s": "s",
    "spans.emitted": "count", "spans.retained": "count", "spans.self_s": "s",
    "analysis.self_s": "s",
    "trace.records": "count", "trace.self_s": "s",
    "net.calls": "count", "net.self_s": "s", "net.kv_transfers": "count",
    "chaos.self_s": "s", "chaos.probes": "count",
    "gc.collections": "count", "gc.pause_s": "s",
    "tracing.overhead_ratio": "ratio",
    "error_ratio": "ratio",
}
#: "count" marks a metric a deterministic simulation repeats exactly, so
#: a later change may cite it as a count; "timing" marks one that moves
#: with the host (wall clock, memory, and the collector's schedule).
KINDS = {name: "timing" if unit in ("s", "1/s", "MB")
         or name in ("tracing.overhead_ratio", "gc.collections") else "count"
         for name, unit in {**END_TO_END, **PER_LAYER}.items()}


def fingerprint() -> dict[str, Any]:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def run_child(workload: str, seed: int, trace: bool,
              short: bool = False) -> dict[str, Any]:
    """One measured run in a fresh process; returns its record."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    args = {"workload": workload, "seed": seed, "trace": int(trace),
            "short": short, "t0": time.monotonic()}
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(args)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} run failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_problems(record: dict[str, Any], expected: dict[str, Any] | None,
                 reference: dict[str, Any]) -> list[str]:
    """Why one run's outputs are wrong (empty when they are right).

    ``expected`` is the seed's pinned outputs (None when unpinned);
    ``reference`` is the invocation's first run, which every run must
    reproduce exactly.
    """
    out = []
    pinned = record["pinned"]
    if expected is not None and pinned != expected:
        diff = sorted(k for k in expected if pinned.get(k) != expected[k])
        out.append(f"pinned outputs differ: {diff}")
    if (record["workload"] != "sessions_crash"
            and pinned["arrivals"] != pinned["completed"] + pinned["errors"]):
        out.append("arrivals != completed + errors")
    if record["workload"] == "sessions_crash" and not pinned["recovery_ok"]:
        out.append("the node crash did not recover")
    for key in ("pinned", "digests", "lane_share"):
        if record[key] != reference[key]:
            out.append(f"{key} differ from the first run")
    return out


def check(records: list[dict[str, Any]], pins: dict[str, Any],
          ) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over one invocation's runs."""
    attempted = failed = 0
    problems: list[str] = []
    for i, record in enumerate(records):
        expected = pins.get(record["workload"], {}).get(str(record["seed"]))
        found = run_problems(record, expected, records[0])
        attempted += record["attempted"]
        failed += record["attempted"] if found else record["errors"]
        problems += [f"run {i}: {p}" for p in found]
    return not problems, attempted, failed, problems


def phase_s(r: dict[str, Any], phase: str, scale: bool = True) -> float:
    """A run's ``wall`` or ``setup`` time with the host-speed sampling
    taken out, in reference seconds unless ``scale`` is off."""
    gross, sampled, sample = (r[key] for key in PHASES[phase])
    net = gross - sampled
    return net * SAMPLE_REF_S / sample if scale else net


def end_to_end(runs: list[dict[str, Any]],
               scale: bool = True) -> dict[str, float]:
    """Medians over runs, in reference seconds unless ``scale`` is off."""
    return {
        "sim_rps": statistics.median(r["requests"] / phase_s(r, "wall", scale)
                                     for r in runs),
        "wall_s": statistics.median(phase_s(r, "wall", scale) for r in runs),
        "setup_s": statistics.median(phase_s(r, "setup", scale)
                                     for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(untraced: list[dict[str, Any]], traced: dict[str, Any],
              attempted: int, failed: int) -> dict[str, float]:
    # Layer self times were taken with the sampling running inside them;
    # it falls evenly in wall time, so one factor takes it out and scales.
    wall = phase_s(traced, "wall")
    ref = wall / traced["wall_s"]
    out = {name: value * ref if PER_LAYER[name] == "s" else value
           for name, value in traced["layers"].items()}
    out["tracing.overhead_ratio"] = wall / end_to_end(untraced)["wall_s"]
    out["error_ratio"] = failed / attempted
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            short: bool) -> list[dict[str, Any]]:
    """Untraced runs for the time budget, then the traced run if asked."""
    budget = seconds / 2 if trace else seconds
    min_runs = 1 if trace else MIN_RUNS
    start = time.monotonic()
    records: list[dict[str, Any]] = []
    while len(records) < min_runs or time.monotonic() - start < budget:
        records.append(run_child(workload, seed, False, short))
        print(json.dumps({"run": records[-1]}), flush=True)
    if trace:
        records.append(run_child(workload, seed, True, short))
        print(json.dumps({"run": records[-1]}), flush=True)
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="short-horizon variant (self-check)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "campaign" / "runner.py").is_file():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    # Byte-compile up front so no measured run pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)

    print(json.dumps({"fingerprint": fingerprint()}), flush=True)
    records = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.short)
    pins = {} if args.short else json.loads(PINS.read_text())
    correct, attempted, failed, problems = check(records, pins)
    for problem in problems:
        print(f"{args.workload} seed {args.seed}: {problem}",
              file=sys.stderr)
    untraced = [r for r in records if not r["traced"]]
    if args.trace:
        values = per_layer(untraced, records[-1], attempted, failed)
        units = PER_LAYER
    else:
        values = end_to_end(untraced)
        units = END_TO_END
        print(json.dumps({"raw": end_to_end(untraced, scale=False)}))
    print(json.dumps({"kinds": {name: KINDS[name] for name in units}}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
