"""Checked-in goldens: CLI outputs compared byte for byte.

``obs_cli.txt`` is the stdout of

    repro obs cli-obs --alerts --incidents \\
        --trace-out obs_trace.json --out obs_scorecard.json

run in an empty directory.  It reads every stored span through
``SpanRecorder.finished``: the per-phase table, the slowest-requests
table and the critical-path cohorts, plus every digest.  The Chrome
trace (~800 KB) and the scorecard are pinned by their SHA-256.  A
change that moves any of them is an output change: regenerate the
files with the command above and say why in the change's notes.

``chaos_gameday.txt``, ``fleet_elastic_day.txt`` and
``sessions_day.txt`` are the stdouts of the examples of those names,
each run as ``PYTHONHASHSEED=0 python examples/<name>.py``: the
four-fault game day's windows and repair log, the elastic day's
scorecard, and the conversational day with and without prefix caching.

``chaos_cli.txt`` is the stdout of

    PYTHONHASHSEED=0 repro chaos --platform hpc --platform k8s \\
        --out chaos_scorecard.json

run in an empty directory: every fault of the quick matrix on both
platforms, scored.  Its scorecard (~50 KB) is pinned by its SHA-256.

``chaos_pulse_row.json`` is the scorecard row, printed by
:data:`CHAOS_PULSE_CELL` with ``PYTHONHASHSEED=0``, of a 3 h pulse-traffic
game day with a node crash and then a network partition.  Quiet-play
skips the probes between bursts, so its detection and recovery scores
read quiet probe runs; the row embeds the trace and observability
digests.
"""

from __future__ import annotations

import difflib
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

OBS_TRACE_SHA256 = ("2fb7b19591965c7700b44f2b61093abf"
                    "7945d3202bc944a25b917c4d40e1bc8b")
OBS_SCORECARD_SHA256 = ("0e3d33f83f5f1a925c5f57692cd5a7f0"
                        "4988ef3230c9d1fe730d2b9d4e1f9be1")
CHAOS_SCORECARD_SHA256 = ("4c97ffea2a598f996c9a9da95a63f77d"
                          "b695da97e254e445cae592cdd6e4558e")

#: the pulse-traffic game day behind ``chaos_pulse_row.json``
CHAOS_PULSE_CELL = """
import dataclasses, json
from repro.campaign import ChaosEventSpec, ScheduleSpec, run_cell
from repro.chaos.runner import case_spec
spec = dataclasses.replace(
    case_spec("node_crash", "hops"),
    schedule=ScheduleSpec(kind="pulse", rate_rps=0.5,
                          period=1800.0, duty=0.2),
    horizon=3 * 3600.0,
    chaos=(ChaosEventSpec("node_crash", 900.0, 600.0),
           ChaosEventSpec("network_partition", 4000.0, 1200.0)))
print(json.dumps(run_cell(spec), sort_keys=True))
"""


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_golden(out: bytes, name: str) -> None:
    """``out`` equals the checked-in ``name``; the unified diff if not."""
    golden = (HERE / name).read_bytes()
    diff = "".join(difflib.unified_diff(
        golden.decode().splitlines(keepends=True),
        out.decode().splitlines(keepends=True), "golden", "fresh"))
    assert out == golden, diff


def _run(args: list[str], cwd: pathlib.Path, **env: str) -> bytes:
    """Stdout of ``python *args`` run in ``cwd`` on this checkout."""
    return subprocess.run(
        [sys.executable, *args], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC), **env),
        capture_output=True, check=True).stdout


def test_obs_cli_matches_its_golden(tmp_path):
    out = _run(["-m", "repro", "obs", "cli-obs", "--alerts", "--incidents",
                "--trace-out", "obs_trace.json", "--out", "obs_scorecard.json"],
               tmp_path)
    _assert_golden(out, "obs_cli.txt")
    assert _sha256(tmp_path / "obs_trace.json") == OBS_TRACE_SHA256
    assert _sha256(tmp_path / "obs_scorecard.json") == OBS_SCORECARD_SHA256


@pytest.mark.parametrize("example", ["chaos_gameday", "fleet_elastic_day",
                                     "sessions_day"])
def test_example_matches_its_golden(tmp_path, example):
    out = _run([str(ROOT / "examples" / f"{example}.py")], tmp_path,
               PYTHONHASHSEED="0")
    _assert_golden(out, f"{example}.txt")


def test_chaos_cli_matches_its_golden(tmp_path):
    out = _run(["-m", "repro", "chaos", "--platform", "hpc", "--platform",
                "k8s", "--out", "chaos_scorecard.json"], tmp_path,
               PYTHONHASHSEED="0")
    _assert_golden(out, "chaos_cli.txt")
    assert _sha256(tmp_path / "chaos_scorecard.json") == \
        CHAOS_SCORECARD_SHA256


def test_chaos_pulse_row_matches_its_golden(tmp_path):
    out = _run(["-c", CHAOS_PULSE_CELL], tmp_path, PYTHONHASHSEED="0")
    _assert_golden(out, "chaos_pulse_row.json")
