"""Deterministic 64-bit PRNG used for every random choice in the package.

All shuffles, bootstrap draws, and feature subsets flow from SplitMix64 so
that golden files reproduce bit-for-bit on any platform and any numpy
version.  The generator is defined entirely by the three constants below
(Steele, Lea & Flood's finalizer); see README for the contract.
"""

from __future__ import annotations

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MUL_1 = 0xBF58476D1CE4E5B9
MIX_MUL_2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 output function: avalanche a 64-bit state word."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_MUL_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *streams: int) -> int:
    """Derive a child seed from (seed, stream indices), order-sensitive.

    Used to give each tree / fold its own independent stream, so the order
    in which they are computed cannot change results.
    """
    z = seed & MASK64
    for s in streams:
        z = mix64((z + GOLDEN_GAMMA * ((s & MASK64) + 1)) & MASK64)
    return z


class SplitMix64:
    """Sequential SplitMix64 stream with rejection-sampled bounded draws."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        return mix64(self._state)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) without modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (2**64 // bound) * bound
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), returned sorted ascending."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.next_below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:k])
