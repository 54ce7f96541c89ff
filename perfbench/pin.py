#!/usr/bin/env python3
"""Write ``pinned.json``: each workload's report-level outputs per seed.

    python3 perfbench/pin.py 0-15 42

Runs every workload once, untraced, for each listed seed (``a-b`` is an
inclusive range) and records the run's ``pinned`` block.  ``run.py``
then requires every run on a pinned seed to reproduce it exactly.
Re-pin only when a change is meant to alter simulated results, and
say so in the change's notes.
"""

from __future__ import annotations

import json
import sys

from run import PINS, WORKLOADS, run_child


def seeds(args: list[str]) -> list[int]:
    out: list[int] = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(args: list[str]) -> None:
    pins: dict[str, dict[str, object]] = {w: {} for w in WORKLOADS}
    for workload in WORKLOADS:
        for seed in seeds(args):
            pins[workload][str(seed)] = run_child(workload, seed,
                                                  False)["pinned"]
            print(workload, seed, flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
