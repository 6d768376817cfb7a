"""SplitMix64 plus the scalar draws that only the tests' oracles make.

The package draws normals, log-normals and uniforms a block at a time
(synth.py) and samples a tree node's features a step at a time
(classify.py); these one-at-a-time versions are what those must equal.
The Box-Muller rule is the one the "Random-number layout" section of
synth.py specifies.
"""

from __future__ import annotations

import math

from flowclean.rng import SplitMix64

_TWO53_INV = 2.0**-53


class ScalarStream(SplitMix64):
    """A SplitMix64 stream with a Box-Muller spare slot."""

    __slots__ = ("_spare_normal",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self._spare_normal: float | None = None

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return mean + std * z
        u1 = ((self.next_u64() >> 11) + 1) * _TWO53_INV
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return mean + std * r * math.cos(theta)

    def lognormal(self, mean: float, sigma: float) -> float:
        """Log-normal sample with the given natural-scale mean.

        ``sigma`` is the standard deviation in log space; ``mu`` is chosen
        so that E[X] = mean.
        """
        if mean <= 0:
            raise ValueError("mean must be positive")
        mu = math.log(mean) - 0.5 * sigma * sigma
        return math.exp(mu + sigma * self.normal())

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        for i in range(k):
            j = i + self.next_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
