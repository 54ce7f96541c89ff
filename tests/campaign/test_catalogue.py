"""The scenario catalogue and the ``repro run`` / ``obs`` / ``campaign``
lookups: pinned hashes, entry names, and clean configuration errors."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.campaign import catalogue, set_path
from repro.chaos.runner import case_spec
from repro.cli import main

#: ``(name, --set edits, spec_hash())``: each pin is the hash the
#: retired flag spelling gave (``repro fleet --hours 2`` and so on,
#: ``--seed 42``), so a catalogue edit that moves a scenario fails here.
SCENARIO_PINS = [
    ("cli-fleet", [], "09686e8f3441"),
    ("cli-fleet", ["horizon=7200"], "f14eb7d528c2"),
    ("cli-fleet", ["horizon=3600", "scheduler_policy=priority"],
     "92022940a6ae"),
    ("cli-sessions", [], "5315d24ed039"),
    ("cli-sessions", ["horizon=3600"], "09b0e19a33c0"),
    ("cli-obs", [], "07834a9222d8"),
    ("cli-obs", ["horizon=600"], "28249c92f170"),
    ("chaos:hops", [], "49403399be19"),
]

#: sha256[:12] of each built-in grid's concatenated cell hashes.
GRID_PINS = {
    "demo-24": "5b0b4d318767",
    "smoke-4": "f46d21701e33",
    "sessions-9": "8c77c4d7e7ea",
    "disagg-8": "8ad0f67789db",
}


@pytest.mark.parametrize("name, sets, want", SCENARIO_PINS)
def test_scenario_hash_is_pinned(name, sets, want):
    spec = catalogue.scenario(name, seed=42)
    for text in sets:
        path, _, value = text.partition("=")
        spec = set_path(spec, path, value)
    assert spec.spec_hash() == want


@pytest.mark.parametrize("name", sorted(GRID_PINS))
def test_grid_cell_hashes_are_pinned(name):
    cells = catalogue.grid(name, seed=42).expand()
    joined = "".join(spec.spec_hash() for spec, _axes in cells)
    assert hashlib.sha256(joined.encode()).hexdigest()[:12] == \
        GRID_PINS[name]


@pytest.mark.parametrize("name", list(catalogue.CATALOGUE))
def test_every_entry_carries_its_name(name):
    assert catalogue.lookup(name).name == name


def test_chaos_matrix_cells_derive_from_the_catalogue_case():
    assert case_spec("node_crash") == catalogue.lookup("chaos:hops")
    assert case_spec("node_crash", seed=7) == catalogue.lookup(
        "chaos:hops", seed=7)


def test_a_scenario_runs_as_a_one_cell_grid():
    grid = catalogue.grid("cli-obs")
    ((spec, axes),) = grid.expand()
    assert spec == catalogue.scenario("cli-obs") and axes == {}
    assert grid.name == "cli-obs"


def test_the_runner_still_exports_the_built_in_grids():
    from repro.campaign.runner import (demo_grid, disagg_grid,
                                       sessions_grid, smoke_grid)
    assert demo_grid is catalogue.demo_grid
    assert (disagg_grid, sessions_grid, smoke_grid) == (
        catalogue.disagg_grid, catalogue.sessions_grid,
        catalogue.smoke_grid)


def test_runner_import_loads_no_extra_modules():
    """The runner must not pull the catalogue or the chaos stack in:
    ``play()`` imports the chaos stack only for a chaos cell."""
    code = ("import json, sys, repro.campaign.runner; print(json.dumps("
            "[m for m in sys.modules if m.split('.')[0] == 'repro']))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert "repro.campaign.catalogue" not in loaded
    assert not [m for m in loaded if m.split(".")[:2] == ["repro", "chaos"]]


def _error(capsys, argv: list[str]) -> str:
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: error: ")
    assert captured.err.count("\n") == 1, "one stderr line, no traceback"
    return captured.err


def test_unknown_name_lists_the_catalogue(capsys):
    for argv in (["run", "nope"], ["obs", "nope"], ["campaign", "nope"]):
        err = _error(capsys, argv)
        assert "'nope'" in err
        assert all(name in err for name in catalogue.CATALOGUE)


def test_run_refuses_a_grid(capsys):
    assert "repro campaign demo-24" in _error(capsys, ["run", "demo-24"])


@pytest.mark.parametrize("argv, needle", [
    (["campaign", "--axis", "nofield=1", "--list"], "nofield"),
    (["obs", "--set", "horizon=0"], "horizon must be positive"),
    (["run", "cli-fleet", "--set", "horizon=soon"], "horizon"),
    (["run", "cli-fleet", "--set", "nofield=1"], "nofield"),
    (["run", "cli-fleet", "--set", "horizon"], "PATH=VALUE"),
    (["run", "cli-sessions", "--set", "sessions.enabled=maybe"],
     "enabled must be a boolean"),
    (["campaign", "smoke-4", "--axis", "seed=1,x", "--list"],
     "seed must be an integer"),
])
def test_configuration_errors_exit_cleanly(capsys, argv, needle):
    assert needle in _error(capsys, argv)


def test_set_reaches_the_campaign_base(capsys):
    assert main(["campaign", "smoke-4", "--set", "horizon=600",
                 "--list"]) == 0
    out = capsys.readouterr().out
    grid = catalogue.grid("smoke-4")
    grid.base = set_path(grid.base, "horizon", 600.0)
    listed = [spec.spec_hash() for spec, _axes in grid.expand()]
    assert "4 cells" in out and all(h in out for h in listed)
