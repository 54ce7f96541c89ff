"""SessionSpec validation, coercion, and draw determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import ScenarioSpec, set_path
from repro.errors import ConfigurationError
from repro.sessions import SessionSpec


def test_defaults_are_disabled_and_valid():
    spec = SessionSpec()
    assert spec.enabled is False
    assert spec.prefix_caching is True


@pytest.mark.parametrize("value,expected", [
    (True, True), (False, False), (1, True), (0, False),
    ("true", True), ("false", False), ("on", True), ("off", False),
    ("Yes", True), ("0", False),
])
def test_bool_coercion_spellings(value, expected):
    """The enclosing scenario spec casts the session bools."""
    spec = ScenarioSpec(sessions={"enabled": value,
                                  "prefix_caching": value})
    assert spec.sessions.enabled is expected
    assert spec.sessions.prefix_caching is expected
    spec = set_path(ScenarioSpec(), "sessions.enabled", value)
    assert spec.sessions.enabled is expected
    spec = ScenarioSpec(sessions=SessionSpec(prefix_caching=value))
    assert spec.sessions.prefix_caching is expected


def test_bad_bool_rejected():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(sessions={"enabled": "maybe"})
    with pytest.raises(ConfigurationError):
        set_path(ScenarioSpec(), "sessions.enabled", "maybe")


@pytest.mark.parametrize("kw", [
    {"min_turns": 0},
    {"max_turns": 2, "min_turns": 3},
    {"mean_turns": 1.0, "min_turns": 2},
    {"think_mean_s": 0.0},
    {"think_sigma": -1.0},
    {"output_sigma": -0.1},
    {"max_context_tokens": 8},
])
def test_validation_rejects(kw):
    with pytest.raises(ConfigurationError):
        SessionSpec(**kw)


def test_turns_respect_bounds_and_mean():
    spec = SessionSpec(mean_turns=5.0, min_turns=2, max_turns=9)
    rng = np.random.default_rng(7)
    draws = [spec.draw_turns(rng) for _ in range(4000)]
    assert min(draws) >= 2 and max(draws) <= 9
    # Capped mean sits a little under the uncapped 5.0.
    assert 4.0 <= float(np.mean(draws)) <= 5.2


def test_think_time_mean_matches_parameter():
    spec = SessionSpec(think_mean_s=30.0, think_sigma=0.6)
    rng = np.random.default_rng(11)
    draws = [spec.draw_think(rng) for _ in range(20000)]
    assert 28.0 <= float(np.mean(draws)) <= 32.0


def test_draws_deterministic_per_seed():
    spec = SessionSpec(enabled=True)

    def roll(seed):
        rng = np.random.default_rng(seed)
        return (spec.draw_turns(rng), spec.draw_first_prompt(rng),
                spec.draw_followup(rng), spec.draw_output(rng),
                spec.draw_think(rng))

    assert roll(3) == roll(3)
    assert roll(3) != roll(4)


def test_followups_shorter_than_openers_on_average():
    spec = SessionSpec()
    rng = np.random.default_rng(5)
    first = np.mean([spec.draw_first_prompt(rng) for _ in range(2000)])
    follow = np.mean([spec.draw_followup(rng) for _ in range(2000)])
    assert follow < first
