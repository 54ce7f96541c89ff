"""ShareGPT-like workload sampler.

The paper streams requests sampled from the ShareGPT V3 unfiltered-cleaned
dataset ("seemed to provide the most realistic scenario").  The benchmark
consumes only (prompt_len, output_len) pairs, so we sample from log-normal
distributions fitted to the published ShareGPT length statistics used by
vLLM's own benchmark: mean prompt ~220 tokens, mean response ~200 tokens,
heavy right tails, both truncated to the serving window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

#: Log-normal parameters fitted to ShareGPT conversation turns (tokens),
#: with the output tail tempered to reflect vLLM's benchmark filtering of
#: over-long completions (the raw dataset's tail is clipped there).
PROMPT_MU, PROMPT_SIGMA = 4.90, 1.00     # median ~134, mean ~221
OUTPUT_MU, OUTPUT_SIGMA = 4.95, 0.70     # median ~141, mean ~181
MIN_TOKENS = 4


@dataclass(frozen=True)
class SampledRequest:
    """One benchmark request: lengths only (contents never matter)."""

    prompt_tokens: int
    output_tokens: int

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.output_tokens


class ShareGptSampler:
    """Seeded sampler of ShareGPT-like request length pairs."""

    def __init__(self, rng: np.random.Generator,
                 max_total_tokens: int = 4096):
        if max_total_tokens < 2 * MIN_TOKENS:
            raise ConfigurationError("max_total_tokens too small")
        self.rng = rng
        self.max_total_tokens = max_total_tokens

    def sample(self, n: int) -> list[SampledRequest]:
        """Draw ``n`` requests (vectorised; deterministic per seed)."""
        if n < 1:
            raise ConfigurationError("need at least one request")
        prompts = np.exp(self.rng.normal(PROMPT_MU, PROMPT_SIGMA, size=n))
        outputs = np.exp(self.rng.normal(OUTPUT_MU, OUTPUT_SIGMA, size=n))
        return self._finish(prompts, outputs)

    def sample_pairs(self, n: int) -> list[SampledRequest]:
        """``n`` consecutive ``sample(1)`` calls, batched, same stream.

        ``sample(1)`` draws one prompt normal then one output normal, so
        ``n`` calls consume ``2n`` interleaved draws.  One vectorized
        ``standard_normal(2n)`` consumes the generator's bit stream
        identically (loc/scale are applied after the unit draws);
        de-interleaving reproduces every pair bit-for-bit — the fleet
        fast-forward path batches whole arrival blocks through here
        without perturbing any seeded request sequence.
        """
        if n < 1:
            raise ConfigurationError("need at least one request")
        unit = self.rng.standard_normal(2 * n)
        prompts = np.exp(PROMPT_MU + PROMPT_SIGMA * unit[0::2])
        outputs = np.exp(OUTPUT_MU + OUTPUT_SIGMA * unit[1::2])
        return self._finish(prompts, outputs)

    def _finish(self, prompts: np.ndarray,
                outputs: np.ndarray) -> list[SampledRequest]:
        prompts = np.clip(prompts.astype(int), MIN_TOKENS, None)
        outputs = np.clip(outputs.astype(int), MIN_TOKENS, None)
        out: list[SampledRequest] = []
        for p, o in zip(prompts, outputs, strict=True):
            total = p + o
            if total > self.max_total_tokens:
                # Proportionally shrink (vLLM's bench filters/truncates).
                scale = self.max_total_tokens / total
                p = max(MIN_TOKENS, int(p * scale))
                o = max(MIN_TOKENS, int(o * scale))
            out.append(SampledRequest(int(p), int(o)))
        return out
