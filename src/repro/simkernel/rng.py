"""Named, seeded random-number streams.

Every stochastic choice in the simulation draws from a *named stream* so
that adding a new source of randomness does not perturb existing ones, and
identical seeds yield identical traces regardless of module import order.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngRegistry:
    """Factory of independent, reproducible ``numpy`` Generators.

    Stream seeds are derived by hashing (root_seed, stream_name), so the
    mapping is stable across runs and machines.
    """

    def __init__(self, seed: int = 0) -> None:
        self.root_seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the Generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.root_seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(child_seed)
            self._streams[name] = gen
        return gen
