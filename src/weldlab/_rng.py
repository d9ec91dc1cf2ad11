"""Deterministic 64-bit PRNG used for every random choice in the package.

All shuffles, bootstrap draws, and feature subsets flow from SplitMix64,
whose draws are exact 64-bit integer arithmetic, the same on any platform
under numpy 2 (a report still takes its S/N ratios and p-values from the C
library's math functions; see README for the contract).  The generator is
defined entirely by the three constants below (Steele, Lea & Flood's
finalizer), and no other module uses them.

Draw k of the stream seeded s is ``mix64(s + k * GOLDEN_GAMMA)``, which is
``derive_seed(s, k - 1)`` (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011).  A *lane* is one stream held as one entry of
a ``uint64`` state array, so that many streams draw in one vectorized
step.  `lane_subsets` draws a node's feature subset on many lanes at
once, each lane making the draws of `SplitMix64.next_below` that a
sequential stream would make, and `lane_skip_subsets` makes the same draws
without building the subsets.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MUL_1 = 0xBF58476D1CE4E5B9
MIX_MUL_2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 output function: avalanche a 64-bit state word, or each
    word of a ``uint64`` array (whose arithmetic wraps mod 2^64)."""
    z = z & MASK64
    z = ((z ^ (z >> 30)) * MIX_MUL_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_MUL_2) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed, *streams):
    """Derive a child seed from (seed, stream indices), order-sensitive.
    Each is an int or a ``uint64`` array (a numpy scalar warns when it
    wraps), and arrays broadcast.

    Used to give each tree / fold its own independent stream, so the order
    in which they are computed cannot change results.
    """
    z = seed & MASK64
    for s in streams:
        z = mix64(z + (GOLDEN_GAMMA * ((s & MASK64) + 1) & MASK64))
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


@functools.lru_cache(maxsize=32)  # the few sizes of one design and its folds
def _packing(n: int):
    """`_first_below`'s constants for n fields of 128 bits: the ones, the mask
    of each low half, the steps, the low halves' unpacker and the limit."""
    fields = struct.Struct("<" + "Q8x" * n)
    ones = int.from_bytes(fields.pack(*[1] * n), "little")
    steps = [(k + 1) * GOLDEN_GAMMA & MASK64 for k in range(n)]
    return (ones, MASK64 * ones, int.from_bytes(fields.pack(*steps), "little"),
            fields.unpack, 2**64 // n * n)


def _first_below(n: int, seed: int) -> list[int]:
    """The first n ``next_below(n)`` draws of ``SplitMix64(seed)``, as one
    `mix64` on one int: draw k in the low half of 128-bit field k - 1, where
    a product fits, and each shift's spill from the next field masked off."""
    ones, mask, steps, unpack, limit = _packing(n)
    z = (seed * ones + steps) & mask
    z = ((z ^ (z >> 30 & mask)) * MIX_MUL_1) & mask
    z = ((z ^ (z >> 27 & mask)) * MIX_MUL_2) & mask
    # The last shift's spill lands in the high halves, which unpack skips.
    draws = unpack((z ^ (z >> 31)).to_bytes(16 * n, "little"))
    if max(draws) >= limit:  # next_below would reject one (rare)
        rng = SplitMix64(seed)
        return [rng.next_below(n) for _ in range(n)]
    return [r % n for r in draws]


def _lane_draws(lanes: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Next draw of each lane in `which`, advancing those lanes in place."""
    state = lanes[which] + np.uint64(GOLDEN_GAMMA)
    lanes[which] = state
    return mix64(state)


def _lane_below(lanes: np.ndarray, which: np.ndarray, bound: int) -> np.ndarray:
    """`SplitMix64.next_below(bound)` on each lane in `which`, advancing
    those lanes in place: a lane whose draw would be rejected redraws,
    alone, until it is accepted."""
    limit = (2**64 // bound) * bound
    r = _lane_draws(lanes, which)
    if limit <= MASK64:  # a power-of-two bound rejects nothing
        redo = np.flatnonzero(r >= limit)
        while redo.size:
            r[redo] = _lane_draws(lanes, which[redo])
            redo = redo[r[redo] >= limit]
    return r % bound


def lane_subsets(lanes: np.ndarray, which: np.ndarray, n: int, k: int) -> np.ndarray:
    """k distinct indices from range(n) per lane in `which` (distinct
    indices into the ``uint64`` array `lanes`), sorted ascending, as row r
    of a (len(which), k) int64 array; each of those lanes advances in place.

    Row r is k steps of partial Fisher-Yates over range(n), step i swapping
    position i with i + ``next_below(n - i)`` of the stream in
    ``lanes[which[r]]``.  The steps run over all rows at once, each through
    `_lane_below`, so each lane ends where a `SplitMix64` from its first
    state ends after the same k `next_below` calls.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} from {n}")
    rows = np.arange(which.size)
    pool = np.tile(np.arange(n, dtype=np.int64), (which.size, 1))
    for i in range(k):
        j = i + _lane_below(lanes, which, n - i).astype(np.intp)
        held = pool[rows, i]
        pool[rows, i] = pool[rows, j]
        pool[rows, j] = held
    return np.sort(pool[:, :k], axis=1)


def lane_skip_subsets(lanes: np.ndarray, which: np.ndarray, n: int, k: int) -> None:
    """Advance each lane in `which` past the draws of one `lane_subsets`
    call, ``next_below(n), ..., next_below(n - k + 1)`` with every
    rejection, building no subset."""
    for i in range(k):
        _lane_below(lanes, which, n - i)
