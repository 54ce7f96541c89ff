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


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_golden(out: bytes, name: str) -> None:
    """``out`` equals the checked-in ``name``; the unified diff if not."""
    golden = (HERE / name).read_bytes()
    diff = "".join(difflib.unified_diff(
        golden.decode().splitlines(keepends=True),
        out.decode().splitlines(keepends=True), "golden", "fresh"))
    assert out == golden, diff


def test_obs_cli_matches_its_golden(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "cli-obs", "--alerts",
         "--incidents", "--trace-out", "obs_trace.json",
         "--out", "obs_scorecard.json"],
        cwd=tmp_path, env=env, capture_output=True, check=True).stdout
    _assert_golden(out, "obs_cli.txt")
    assert _sha256(tmp_path / "obs_trace.json") == OBS_TRACE_SHA256
    assert _sha256(tmp_path / "obs_scorecard.json") == OBS_SCORECARD_SHA256


@pytest.mark.parametrize("example", ["chaos_gameday", "fleet_elastic_day",
                                     "sessions_day"])
def test_example_matches_its_golden(tmp_path, example):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{example}.py")],
        cwd=tmp_path, env=env, capture_output=True, check=True).stdout
    _assert_golden(out, f"{example}.txt")
