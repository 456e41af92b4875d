"""Deterministic PRNG used for every seeded decision in the pipeline.

The generator is splitmix64 (Steele, Lea & Flood's SplittableRandom finalizer).
It is tiny, has a single 64-bit word of state, and produces the same stream on
every platform, which makes seeded train/test splits part of the artifact
contract rather than an accident of the host library. ALGORITHM names the
scheme and is embedded in serialized configs.
"""

from __future__ import annotations

import numpy as np

ALGORITHM = "splitmix64-fisher-yates-v1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream seeded with an unsigned 64-bit integer."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _M1) & _MASK64
        z = ((z ^ (z >> 27)) * _M2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling (unbiased)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def _swap_targets(n: int, seed: int) -> list[int] | None:
    """SplitMix64(seed).below(i + 1) for i = n-1 down to 1, drawn in numpy.

    Draw m of the stream is mix(seed + m * GAMMA), so all draws are taken at
    once. None if one of them falls in below's rejected range: a rejection
    takes a second draw, which shifts every later one.
    """
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (np.uint64(seed & _MASK64)
             + np.arange(1, n, dtype=np.uint64) * np.uint64(_GAMMA))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    z ^= z >> np.uint64(31)
    # below(b) rejects r >= 2**64 - 2**64 % b, and 2**64 % b = (2**64 - b) % b
    if (z > np.uint64(_MASK64) - (np.uint64(0) - bounds) % bounds).any():
        return None
    return (z % bounds).tolist()


def shuffled_indices(n: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of range(n) driven by SplitMix64(seed).

    From the top, element i swaps with SplitMix64(seed).below(i + 1). The
    draws come from _swap_targets, or one at a time when it finds a
    rejection.
    """
    rng = SplitMix64(seed)
    targets = _swap_targets(n, seed)
    if targets is None:
        targets = [rng.below(i + 1) for i in range(n - 1, 0, -1)]
    idx = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), targets):
        idx[i], idx[j] = idx[j], idx[i]
    return idx
