"""SplitMix64 and the Fisher-Yates shuffle, written apart from ``hafcp.rng``.

The benchmark draws every input from this stream, and the output checker uses
the same stream to re-derive the program's seeded train/test split
(``splitmix64-fisher-yates-v1``) without importing the program.
``test_bench_checker.py`` pins the stream to ``hafcp.rng``.

SplitMix64 is counter-based: draw number i (from 1) of the stream seeded with
s is mix(s + i * GAMMA mod 2^64). ``Draws`` uses that to produce long runs of
draws with numpy, in the same order as calling ``next_u64`` repeatedly.
"""

from __future__ import annotations

import math

import numpy as np

ALGORITHM = "splitmix64-fisher-yates-v1"

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


class SplitMix64:
    """Scalar stream: one 64-bit draw per call."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _M1) & MASK64
        z = ((z ^ (z >> 27)) * _M2) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection of the biased top range."""
        limit = (MASK64 + 1) - ((MASK64 + 1) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def shuffled_indices(n: int, seed: int) -> list[int]:
    """Fisher-Yates from the top: swap i with a draw below i + 1."""
    r = SplitMix64(seed)
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = r.below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


class Draws:
    """Vectorized consumer of one SplitMix64 stream, in draw order."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.seed = seed & MASK64
        self.used = 0

    def u64(self, count: int) -> np.ndarray:
        steps = np.arange(self.used + 1, self.used + count + 1, dtype=np.uint64)
        self.used += count
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + steps * np.uint64(GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
        return z ^ (z >> np.uint64(31))

    def uniform(self, count: int) -> np.ndarray:
        """Floats in [0, 1) with 53 random mantissa bits, one draw each."""
        return (self.u64(count) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def normal(self, count: int) -> np.ndarray:
        """Box-Muller, two draws per value, with the scalar math functions."""
        u = self.uniform(2 * count).tolist()
        return np.array([math.sqrt(-2.0 * math.log(1.0 - u[2 * i]))
                         * math.cos(2.0 * math.pi * u[2 * i + 1])
                         for i in range(count)], dtype=np.float64)

    def below(self, count: int, bound: int) -> np.ndarray:
        """``count`` draws of SplitMix64.below(bound), one draw each.

        A draw in the rejected top range (probability bound / 2^64) would
        consume a second draw; it is refused here rather than mis-ordered.
        """
        limit = (MASK64 + 1) - ((MASK64 + 1) % bound)
        raw = self.u64(count)
        if limit <= MASK64 and bool((raw >= np.uint64(limit)).any()):
            raise RuntimeError("rejected draw: use SplitMix64.below for this seed")
        return (raw % np.uint64(bound)).astype(np.int64)
