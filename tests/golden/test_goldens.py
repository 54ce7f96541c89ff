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
"""

from __future__ import annotations

import difflib
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

OBS_TRACE_SHA256 = ("2fb7b19591965c7700b44f2b61093abf"
                    "7945d3202bc944a25b917c4d40e1bc8b")
OBS_SCORECARD_SHA256 = ("0e3d33f83f5f1a925c5f57692cd5a7f0"
                        "4988ef3230c9d1fe730d2b9d4e1f9be1")


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_obs_cli_matches_its_golden(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "cli-obs", "--alerts",
         "--incidents", "--trace-out", "obs_trace.json",
         "--out", "obs_scorecard.json"],
        cwd=tmp_path, env=env, capture_output=True, check=True).stdout
    golden = (HERE / "obs_cli.txt").read_bytes()
    diff = "".join(difflib.unified_diff(
        golden.decode().splitlines(keepends=True),
        out.decode().splitlines(keepends=True), "golden", "fresh"))
    assert out == golden, diff
    assert _sha256(tmp_path / "obs_trace.json") == OBS_TRACE_SHA256
    assert _sha256(tmp_path / "obs_scorecard.json") == OBS_SCORECARD_SHA256
