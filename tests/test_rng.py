"""Lanes: SplitMix64 streams held in a uint64 array and drawn together.

A lane must reproduce `SplitMix64` draw for draw, rejections included, so
that a forest grown in lockstep draws the feature subsets that each tree
grown alone would draw (`conftest.sample_subset`, one stream at a time).
"""

import numpy as np
import pytest

from weldlab._rng import (
    MASK64,
    SplitMix64,
    derive_seed,
    lane_skip_subsets,
    lane_subsets,
    mix64,
)
from weldlab.dataset import bootstrap_indices

from conftest import lane_draws, rejecting_seed, sample_subset, unmix64


class TestUnmix:
    def test_inverts_mix64(self):
        for z in (0, 1, 12345, MASK64, 2**63, 0x0123456789ABCDEF):
            assert mix64(unmix64(z)) == z
            assert unmix64(mix64(z)) == z

    @pytest.mark.parametrize("draw", [1, 3])
    def test_rejecting_seed_rejects(self, draw):
        rng = SplitMix64(rejecting_seed(draw))
        for _ in range(draw - 1):
            rng.next_u64()
        assert rng.next_u64() == MASK64


class TestMix64OverArrays:
    def test_each_word_equals_the_scalar(self):
        words = [0, 1, 2**63, MASK64, 0x9E3779B97F4A7C15, 987654321987654321]
        got = mix64(np.array(words, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [mix64(z) for z in words]


class TestDeriveSeedOverArrays:
    """`derive_seed` of ``uint64`` arrays equals its int form entry by
    entry, wrapping mod 2^64 where ints are reduced."""

    SEEDS = [0, 1, 2**63, MASK64]

    @pytest.mark.parametrize("streams", [(0,), (1,), (MASK64,), (7, 1)])
    def test_seed_arrays_with_int_streams(self, streams):
        got = derive_seed(np.array(self.SEEDS, np.uint64), *streams)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(s, *streams) for s in self.SEEDS]

    def test_seed_and_stream_arrays_broadcast(self):
        streams = list(range(5)) + [MASK64]
        got = derive_seed(np.array(self.SEEDS, np.uint64)[:, None],
                          np.array(streams, np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [[derive_seed(s, t) for t in streams]
                                for s in self.SEEDS]
        assert derive_seed(got, 1).tolist() == [
            [derive_seed(s, t, 1) for t in streams] for s in self.SEEDS]


class TestLaneSubsets:
    @pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (3, 3), (5, 2), (9, 4), (1, 1)])
    def test_lanes_equal_splitmix64_draw_for_draw(self, n, k):
        seeds = [0, 1, 42, 2**63, MASK64, 0x0123456789ABCDEF, 77, 2**40 + 3]
        lanes = np.array(seeds, dtype=np.uint64)
        rngs = [SplitMix64(s) for s in seeds]
        # Rounds over a changing subset of lanes, in a changing order.
        for which in ([0, 1, 2, 3, 4, 5, 6, 7], [5, 2, 7], [3], [7, 6, 5, 4, 0]):
            got = lane_subsets(lanes, np.array(which), n, k)
            assert got.dtype == np.int64 and got.shape == (len(which), k)
            assert got.tolist() == [
                sample_subset(rngs[t], n, k) for t in which]
            assert lanes.tolist() == [r._state for r in rngs]

    @pytest.mark.parametrize("draw", [1, 3])
    def test_a_rejected_lane_redraws_as_next_below(self, draw):
        # n = 5, k = 3: bounds 5, 4 and 3; draw 1 (bound 5) or draw 3
        # (bound 3) is 2^64 - 1 and is rejected.  The other lanes accept.
        seeds = [11, rejecting_seed(draw), 12, 13]
        lanes = np.array(seeds, dtype=np.uint64)
        got = lane_subsets(lanes, np.arange(len(seeds)), 5, 3)
        for row, seed, state in zip(got.tolist(), seeds, lanes.tolist()):
            rng = SplitMix64(seed)
            assert row == sample_subset(rng, 5, 3)
            assert state == rng._state
        assert [lane_draws(s, e) for s, e in zip(seeds, lanes.tolist())] == [3, 4, 3, 3]

    def test_a_power_of_two_bound_rejects_nothing(self):
        seed = rejecting_seed(1)
        lanes = np.array([seed], dtype=np.uint64)
        got = lane_subsets(lanes, np.array([0]), 4, 1)
        rng = SplitMix64(seed)
        assert got.tolist() == [sample_subset(rng, 4, 1)]
        assert lane_draws(seed, int(lanes[0])) == 1

    def test_rows_sorted_distinct_in_range(self):
        lanes = np.arange(50, dtype=np.uint64)
        for n, k in [(10, 4), (3, 3), (9, 1)]:
            for row in lane_subsets(lanes, np.arange(50), n, k).tolist():
                assert row == sorted(set(row))
                assert len(row) == k and 0 <= row[0] and row[-1] < n

    def test_lanes_not_drawn_stay(self):
        lanes = np.array([5, 6, 7], dtype=np.uint64)
        lane_subsets(lanes, np.array([1]), 3, 2)
        assert lanes.tolist()[::2] == [5, 7]
        assert lane_draws(6, int(lanes[1])) == 2

    @pytest.mark.parametrize("n, k", [(3, 4), (3, -1)])
    def test_bad_k_rejected(self, n, k):
        with pytest.raises(ValueError):
            lane_subsets(np.zeros(1, dtype=np.uint64), np.array([0]), n, k)


class TestLaneSkipSubsets:
    """A node with no admissible split still makes the draws of its subset
    in the recursion, so its lane skips them."""

    @pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (3, 3), (5, 3), (4, 2)])
    def test_lanes_equal_splitmix64_draw_for_draw(self, n, k):
        # Draw 1 or 3 of two lanes is 2^64 - 1, which every bound but a
        # power of two rejects.
        seeds = [0, rejecting_seed(1), 42, rejecting_seed(3), MASK64, 2**63]
        lanes = np.array(seeds, dtype=np.uint64)
        drawn = lanes.copy()
        rngs = [SplitMix64(s) for s in seeds]
        for which in ([0, 1, 2, 3, 4, 5], [3, 1], [4]):
            lane_skip_subsets(lanes, np.array(which), n, k)
            for t in which:
                for i in range(k):
                    rngs[t].next_below(n - i)
            assert lanes.tolist() == [r._state for r in rngs]
            # Where `lane_subsets` leaves the same lanes.
            lane_subsets(drawn, np.array(which), n, k)
            assert drawn.tolist() == lanes.tolist()

    def test_a_rejected_draw_is_skipped_too(self):
        # n = 5, k = 3: draw 3 (bound 3) of lane 1 is rejected and redrawn.
        seeds = [11, rejecting_seed(3)]
        lanes = np.array(seeds, dtype=np.uint64)
        lane_skip_subsets(lanes, np.arange(2), 5, 3)
        assert [lane_draws(s, e) for s, e in zip(seeds, lanes.tolist())] == [3, 4]


class TestBootstrapDraws:
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 81])
    def test_equal_next_below_repeated(self, n):
        for seed in (0, 1, 7, MASK64, 2**63 + 5):
            rng = SplitMix64(seed)
            assert bootstrap_indices(n, seed) == [rng.next_below(n) for _ in range(n)]

    def test_a_rejected_draw_is_redrawn(self):
        seed = rejecting_seed(1)
        rng = SplitMix64(seed)
        assert bootstrap_indices(3, seed) == [rng.next_below(3) for _ in range(3)]
        # Three indices took four draws.
        assert lane_draws(seed, rng._state) == 4
