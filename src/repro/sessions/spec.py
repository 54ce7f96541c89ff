"""Declarative multi-turn conversation workloads.

A :class:`SessionSpec` describes a population of conversations the way
:class:`~repro.fleet.traffic.ArrivalSchedule` describes a population of
arrivals: turns per session (shifted-geometric), think time between
turns (log-normal), and a prompt-growth model in which every turn's
prompt is the *entire prior context* (all previous prompts and
completions) plus fresh user text.  That growth model is what makes
multi-turn serving a different workload class from single-shot sampling:
prompts get longer every turn, and the shared prefix makes KV-cache
reuse and cache-aware placement the dominant TTFT lever.

All draws for one session come from a single named RNG stream derived
from the session's arrival index, so sessions are mutually independent:
adding, removing, or reordering other sessions never perturbs a
session's turn count, lengths, or think times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bench.sharegpt import MIN_TOKENS, OUTPUT_MU, OUTPUT_SIGMA, PROMPT_MU
from ..errors import ConfigurationError

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _coerce_bool(name: str, value) -> bool:
    """Accept bools and their grid-axis / ``--set`` / YAML spellings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        low = value.strip().lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
    raise ConfigurationError(f"{name} must be a boolean, got {value!r}")


@dataclass(frozen=True)
class SessionSpec:
    """One conversational workload class, as a frozen, hashable value.

    ``enabled`` gates the whole subsystem: the default-constructed spec
    means "no sessions" so every existing single-shot scenario is
    untouched.  ``mean_turns`` parameterizes a shifted geometric
    (sessions always have >= ``min_turns`` turns), ``think_mean_s`` /
    ``think_sigma`` a log-normal think time with exactly that mean, and
    the ``*_mu`` / ``*_sigma`` pairs log-normal token counts for the
    opening prompt, each later turn's fresh user text, and each turn's
    completion budget (defaults follow the ShareGPT fits in
    :mod:`repro.bench.sharegpt`).
    """

    enabled: bool = False
    mean_turns: float = 5.0
    min_turns: int = 1
    max_turns: int = 16
    think_mean_s: float = 30.0
    think_sigma: float = 0.6
    first_prompt_mu: float = PROMPT_MU       # median ~134 tokens
    first_prompt_sigma: float = 1.0
    followup_mu: float = 4.0                 # median ~55 tokens
    followup_sigma: float = 0.7
    output_mu: float = OUTPUT_MU             # median ~141 tokens
    output_sigma: float = OUTPUT_SIGMA
    max_context_tokens: int = 16384
    prefix_caching: bool = True

    def __post_init__(self):
        # Field types are cast by the enclosing ScenarioSpec.
        if self.min_turns < 1:
            raise ConfigurationError("min_turns must be >= 1")
        if self.max_turns < self.min_turns:
            raise ConfigurationError("max_turns must be >= min_turns")
        if self.mean_turns < self.min_turns:
            raise ConfigurationError("mean_turns must be >= min_turns")
        if self.think_mean_s <= 0 or self.think_sigma < 0:
            raise ConfigurationError("bad think-time parameters")
        for name in ("first_prompt_sigma", "followup_sigma",
                     "output_sigma"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.max_context_tokens < 4 * MIN_TOKENS:
            raise ConfigurationError("max_context_tokens too small")

    # -- per-session draws (all from the session's own stream) ------------------

    def draw_turns(self, rng: np.random.Generator) -> int:
        """Shifted geometric: ``min_turns - 1 + Geometric(p)``, capped."""
        extra_mean = self.mean_turns - (self.min_turns - 1)
        turns = self.min_turns - 1 + int(rng.geometric(1.0 / extra_mean))
        return min(turns, self.max_turns)

    def draw_think(self, rng: np.random.Generator) -> float:
        """Log-normal think time whose *mean* is ``think_mean_s``."""
        mu = math.log(self.think_mean_s) - 0.5 * self.think_sigma ** 2
        return float(rng.lognormal(mu, self.think_sigma))

    def draw_first_prompt(self, rng: np.random.Generator) -> int:
        return self._tokens(rng, self.first_prompt_mu,
                            self.first_prompt_sigma)

    def draw_followup(self, rng: np.random.Generator) -> int:
        """Fresh user text added on a non-first turn."""
        return self._tokens(rng, self.followup_mu, self.followup_sigma)

    def draw_output(self, rng: np.random.Generator) -> int:
        return self._tokens(rng, self.output_mu, self.output_sigma)

    @staticmethod
    def _tokens(rng: np.random.Generator, mu: float, sigma: float) -> int:
        return max(MIN_TOKENS, int(rng.lognormal(mu, sigma)))
