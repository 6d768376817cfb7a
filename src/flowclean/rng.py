"""Deterministic SplitMix64 random streams.

All randomized stages (scenario synthesis, k-means++ seeding, bootstrap
sampling, per-node feature sampling, train/test shuffles) draw from this
generator so that runs are reproducible from a single integer seed,
independent of Python or numpy versions. The generator is fully
specified here so another implementation can reproduce the streams bit
for bit:

* State advances by the 64-bit golden gamma ``0x9E3779B97F4A7C15`` per draw.
* Each output is the advanced state passed through the SplitMix64 finalizer
  ``z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
  z ^= z>>31`` (all arithmetic mod 2**64).
* ``random()`` maps a draw to [0, 1) as ``(u64 >> 11) * 2**-53``.
* ``next_below(n)`` reduces a draw with ``u64 % n`` (the modulo bias is
  negligible for the small n used here).
* Sub-streams come from ``derive(seed, *keys)``: fold each key into the seed
  with the finalizer, ``s = mix64(s ^ mix64(key))``, starting from
  ``s = mix64(seed)``.

Because the state advances by a fixed gamma, the i-th draw is a pure
function of (seed, i); ``stream_draws`` computes any draws of any
streams that way with numpy, and ``next_u64_array`` uses it to produce
a block of draws while leaving the stream position exactly as if the
draws had been made one by one.

How scenario synthesis lays its flows out on these draws (draws per flow
by role, their order and the Box-Muller rule) is specified in the
"Random-number layout" section of ``synth.py``; how a forest draws its
bootstrap samples and per-node features, in the ``classify.py``
docstring.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53_INV = 2.0**-53


def mix64(value: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective scramble."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive(seed: int, *keys: int) -> int:
    """Derive an independent sub-stream seed from (seed, keys)."""
    s = mix64(seed)
    for key in keys:
        s = mix64(s ^ mix64(key))
    return s


def stream_draws(seeds: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Draw number ``positions`` (1-based) of the streams ``SplitMix64(seeds)``.

    Elementwise over the broadcast uint64 arrays; no stream is advanced.
    """
    z = seeds + positions * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Sequential SplitMix64 stream over a 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def next_u64_array(self, count: int) -> np.ndarray:
        """Vectorized block of draws; advances the stream by ``count``."""
        z = stream_draws(
            np.uint64(self._state), np.arange(1, count + 1, dtype=np.uint64)
        )
        self._state = (self._state + count * _GAMMA) & _MASK64
        return z

    def random(self) -> float:
        return (self.next_u64() >> 11) * _TWO53_INV

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
