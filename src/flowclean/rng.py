"""Deterministic SplitMix64 random streams, drawn by position.

All randomized stages (scenario synthesis, k-means++ seeding, bootstrap
sampling, per-node feature sampling, train/test shuffles) draw from
these streams so that runs are reproducible from a single integer seed,
independent of Python or numpy versions. The streams are fully
specified here so another implementation can reproduce them bit for
bit:

* Draw i (i = 1, 2, ...) of the stream ``seed`` is the SplitMix64
  finalizer of ``seed + i * 0x9E3779B97F4A7C15`` (the 64-bit golden
  gamma): ``z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
  z *= 0x94D049BB133111EB; z ^= z>>31``, all arithmetic mod 2**64.
  So a draw is a pure function of (seed, position); ``stream_draws``
  computes any draws of any streams that way with numpy.
* ``unit_floats`` maps a draw u to [0, 1) as ``(u >> 11) * 2**-53``.
* ``shuffle`` is Fisher-Yates over n items: draw d (d = 1..n-1) swaps
  place n - d with place ``u % (n - d + 1)``.
* Sub-streams come from ``derive(seed, *keys)``: fold each key into the seed
  with the finalizer, ``s = mix64(s ^ mix64(key))``, starting from
  ``s = mix64(seed)``.

Each stage takes its own positions of its own stream:

* app i of a scenario runs on from draw 1 of ``derive(seed, i)``;
  the "Random-number layout" section of ``synth.py`` gives the draws
  per flow;
* k-means++ seeding takes draws 1..k of the clustering seed
  (``cluster.py``);
* in the stratified split, label j's shuffle, g rows, takes draws
  1..g-1 of ``derive(seed, j)``;
* tree t's bootstrap takes draws 1..n of ``derive(seed, t)``, and its
  split call m the F draws from n + m * F + 1 on (``classify.py``).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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
    """Draw number ``positions`` (1-based) of the streams ``seeds``.

    Elementwise over the broadcast uint64 arrays.
    """
    z = seeds + positions * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def unit_floats(draws: np.ndarray) -> np.ndarray:
    """Draws mapped to float64s in [0, 1): ``(u >> 11) * 2**-53``."""
    return (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53


def shuffle(seed: int, items: list) -> None:
    """Fisher-Yates shuffle of items in place, on draws 1..n-1 of seed."""
    n = len(items)
    places = np.arange(n, 1, -1, dtype=np.uint64)  # n - d + 1 for draw d
    picks = stream_draws(np.uint64(seed), np.arange(1, n, dtype=np.uint64)) % places
    for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
        items[i], items[j] = items[j], items[i]
