#!/usr/bin/env python3
"""Fast self-check of the benchmark, on each workload's short variant.

    python3 perfbench/selfcheck.py

For every workload it confirms that:

1. ``run.py`` prints, as its last line, every metric ``BENCHMARK.json``
   names for the mode, with the same unit, and finds the runs correct;
2. a perturbed pinned output is reported as failed, for all of the
   run's requests;
3. the traced run's digests, report outputs and lane share equal the
   untraced runs' (``run.py`` checks this; check 1 requires the traced
   result to be correct), and every metric labelled a count repeats
   exactly across two traced runs.

Exits non-zero at the first check that does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any

from run import HERE, KINDS, ROOT, WORKLOADS, check, run_child

SEED = 7


def fail(message: str) -> None:
    raise SystemExit(f"selfcheck FAILED: {message}")


def bench(workload: str, trace: int) -> tuple[list[dict], dict]:
    """Run the benchmark CLI; returns (run records, final result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--short"], cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}:\n"
             f"{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return [line["run"] for line in lines if "run" in line], lines[-1]


def check_result(workload: str, trace: int, result: dict,
                 spec: list[dict[str, Any]]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} --trace {trace}: runs not correct: {result}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} --trace {trace}: metrics/units {got} != {want}")


def main() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    if names != list(WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    for workload in WORKLOADS:
        _, result = bench(workload, 0)
        check_result(workload, 0, result, manifest["end_to_end"])
        runs, result = bench(workload, 1)
        check_result(workload, 1, result, manifest["per_layer"])

        # 2. A perturbed pinned output fails every request of its run.
        pinned = runs[0]["pinned"]
        good = {workload: {str(SEED): pinned}}
        bad = {workload: {str(SEED): {**pinned,
                                      "completed": pinned["completed"] + 1}}}
        ok, attempted, failed, _ = check(runs, good)
        if not ok or failed:
            fail(f"{workload}: unperturbed pins reported failed")
        ok, attempted, failed, problems = check(runs, bad)
        if ok or failed != attempted:
            fail(f"{workload}: perturbed pin not reported: {problems}")

        # 3. Tracing leaves the simulation unchanged: the --trace 1 result
        # is correct only if the traced run's digests, report outputs and
        # lane share equal the untraced runs'.  Counts repeat exactly.
        if not runs[-1]["traced"] or runs[0]["traced"]:
            fail(f"{workload}: expected untraced runs, then a traced run")
        first = run_child(workload, SEED, True, short=True)["layers"]
        second = run_child(workload, SEED, True, short=True)["layers"]
        drift = [name for name in first
                 if KINDS[name] == "count" and first[name] != second[name]]
        if drift:
            fail(f"{workload}: counts differ between traced runs: {drift}")
        print(f"{workload}: ok", flush=True)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
