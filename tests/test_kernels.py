import subprocess
import sys

import numpy as np
import pytest

from weldlab import kernels

from conftest import assert_split_optimal


def random_instance(rng, max_runs=12, max_features=4):
    n = int(rng.integers(2, max_runs + 1))
    p = int(rng.integers(1, max_features + 1))
    X = rng.uniform(-5.0, 5.0, (n, p))
    y = rng.uniform(-10.0, 10.0, n)
    return np.ascontiguousarray(X), y


def subset_instance(rng, kind):
    """n in 1..40 rows, 1-5 columns, a random ascending feature subset.

    "tied": integer columns and responses, so scores tie exactly.
    "decimal": repeated non-dyadic responses, so pure children's prefix-sum
    SSE can round below zero and the clamp decides.
    """
    n = int(rng.integers(1, 41))
    p = int(rng.integers(1, 6))
    if kind == "continuous":
        X = rng.uniform(-5.0, 5.0, (n, p))
        y = rng.uniform(-10.0, 10.0, n)
    else:
        X = rng.integers(0, 3, (n, p)).astype(np.float64)
        if kind == "tied":
            y = rng.integers(0, 4, n).astype(np.float64)
        else:
            y = rng.choice([0.1, 0.3, 0.7], n)
    k = int(rng.integers(1, p + 1))
    feats = np.sort(rng.choice(p, k, replace=False)).astype(np.int64)
    return np.ascontiguousarray(X), y, feats, int(rng.integers(1, 4))


class TestNumpyMatchesLoopSource:
    """`best_split` against `_best_split_loops`, the reference loop: all
    four return values must be equal."""

    @pytest.mark.parametrize("kind", ["continuous", "tied", "decimal"])
    def test_bitwise_equal(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(1000):
            X, y, feats, min_leaf = subset_instance(rng, kind)
            a = kernels.best_split(X, y, feats, min_leaf)
            b = kernels._best_split_loops(X, y, feats, min_leaf)
            assert tuple(a) == tuple(b), (X, y, feats, min_leaf)

    def test_single_row_has_no_split(self):
        X = np.array([[2.0, 3.0]])
        y = np.array([7.0])
        feats = np.arange(2, dtype=np.int64)
        assert kernels.best_split(X, y, feats, 1) == (-1, 0.0, np.inf, 0.0)

    def test_active_backend_is_numpy(self):
        assert kernels.active_backend() == "numpy"


def batch_instance(rng, kind, n):
    """A batch of 1-6 nodes of n rows each, for `best_splits`, drawn as in
    `subset_instance`: (Xb, yb, features, min_leaf)."""
    B = int(rng.integers(1, 7))
    p = int(rng.integers(1, 6))
    if kind == "continuous":
        Xb = rng.uniform(-5.0, 5.0, (B, n, p))
        yb = rng.uniform(-10.0, 10.0, (B, n))
    else:
        Xb = rng.integers(0, 3, (B, n, p)).astype(np.float64)
        if kind == "tied":
            yb = rng.integers(0, 4, (B, n)).astype(np.float64)
        else:
            yb = rng.choice([0.1, 0.3, 0.7], (B, n))
    k = int(rng.integers(1, p + 1))
    feats = np.sort(rng.choice(p, k, replace=False)).astype(np.int64)
    return Xb, yb, feats, int(rng.integers(1, 4))


class TestBatchedKernel:
    """`best_splits` node by node against `_best_split_loops` and
    `best_split`: all four values of every node must be equal."""

    @pytest.mark.parametrize("kind", ["continuous", "tied", "decimal"])
    def test_each_node_equals_the_single_node_kernels(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)) + 1)
        seen = set()
        for n in range(1, 41):
            for _ in range(8):
                Xb, yb, feats, min_leaf = batch_instance(rng, kind, n)
                seen.add((feats.size, min_leaf))
                got = kernels.best_splits(Xb, yb, feats, min_leaf)
                assert [a.shape for a in got] == [yb.shape[:1]] * 4
                for b in range(yb.shape[0]):
                    X = np.ascontiguousarray(Xb[b])
                    node = tuple(v[b].item() for v in got)
                    assert node == kernels._best_split_loops(X, yb[b], feats, min_leaf)
                    assert node == kernels.best_split(X, yb[b], feats, min_leaf)
        assert {k for k, _ in seen} >= {1, 2} and {m for _, m in seen} == {1, 2, 3}

    @pytest.mark.parametrize("kind", ["continuous", "tied", "decimal"])
    def test_per_node_subsets_equal_the_single_node_kernels(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)) + 2)
        sizes, varied = set(), False
        for n in range(1, 41):
            for _ in range(8):
                Xb, yb, _, min_leaf = batch_instance(rng, kind, n)
                B, _, p = Xb.shape
                k = int(rng.integers(1, p + 1))
                feats = np.array(
                    [np.sort(rng.choice(p, k, replace=False)) for _ in range(B)],
                    dtype=np.int64,
                )
                sizes.add(k)
                varied |= len({tuple(row) for row in feats.tolist()}) > 1
                got = kernels.best_splits(Xb, yb, feats, min_leaf)
                assert [a.shape for a in got] == [yb.shape[:1]] * 4
                for b in range(B):
                    X = np.ascontiguousarray(Xb[b])
                    node = tuple(v[b].item() for v in got)
                    assert node == kernels._best_split_loops(X, yb[b], feats[b], min_leaf)
                    assert node == kernels.best_split(X, yb[b], feats[b], min_leaf)
        assert varied and sizes >= {1, 2}

    def test_stable_argsort_along_the_last_axis_is_per_row(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 3, (7, 4, 25)).astype(np.float64)
        order = a.argsort(axis=-1, kind="stable")
        for i, j in np.ndindex(a.shape[:2]):
            assert np.array_equal(order[i, j], np.argsort(a[i, j], kind="stable"))

    def test_accumulate_along_the_last_axis_is_a_sequential_sum(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(-1e3, 1e3, (7, 4, 40)) * rng.choice([1e-9, 1.0, 1e9], 40)
        c = np.add.accumulate(a, axis=-1)
        for i, j in np.ndindex(a.shape[:2]):
            total = 0.0
            for t, v in enumerate(a[i, j].tolist()):
                total += v
                assert c[i, j, t] == total


class TestBestSplitContract:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            X, y = random_instance(rng)
            feats = np.arange(X.shape[1], dtype=np.int64)
            f, t, score, _ = kernels.best_split(X, y, feats, 1)
            assert_split_optimal(X, y, f, t)

    def test_matches_oracle_with_min_leaf(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            X, y = random_instance(rng, max_runs=12)
            min_leaf = int(rng.integers(1, 4))
            feats = np.arange(X.shape[1], dtype=np.int64)
            f, t, _, _ = kernels.best_split(X, y, feats, min_leaf)
            assert_split_optimal(X, y, f, t, min_leaf)

    def test_no_split_on_constant_feature(self):
        X = np.full((5, 1), 3.0)
        y = np.arange(5.0)
        f, _, _, _ = kernels.best_split(X, y, np.array([0], dtype=np.int64), 1)
        assert f == -1

    def test_min_leaf_respected(self):
        X = np.arange(6.0)[:, None].copy()
        y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 100.0])
        # best unconstrained split isolates the last point; min_leaf=3 forbids it
        f, t, _, _ = kernels.best_split(X, y, np.array([0], dtype=np.int64), 3)
        assert f == 0
        assert t == 2.5

    def test_tie_breaks_to_lowest_feature(self):
        # identical columns: every candidate score ties exactly
        col = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.ascontiguousarray(np.column_stack([col, col]))
        y = np.array([0.0, 1.0, 1.0, 0.0])
        f, _, _, _ = kernels.best_split(X, y, np.arange(2, dtype=np.int64), 1)
        assert f == 0

    def test_tie_breaks_to_lowest_threshold(self):
        # symmetric response: splitting off either end scores identically
        # (exact in float: y sums are small integers)
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        f, t, _, _ = kernels.best_split(X, y, np.arange(1, dtype=np.int64), 1)
        assert f == 0
        assert t == 1.5

    def test_mirrored_feature_ties_to_lower_index(self):
        # feature 1 is feature 0 mirrored; partitions coincide as sets and
        # all values are small integers so both scans round identically
        a = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.ascontiguousarray(np.column_stack([a, a[::-1]]))
        y = np.array([0.0, 0.0, 1.0, 1.0])
        f, t, _, _ = kernels.best_split(X, y, np.arange(2, dtype=np.int64), 1)
        assert f == 0
        assert t == 2.5

    def test_parent_sse_reported(self):
        y = np.array([1.0, 2.0, 3.0])
        X = np.array([[1.0], [2.0], [3.0]])
        _, _, _, parent = kernels.best_split(
            X, y, np.array([0], dtype=np.int64), 1
        )
        assert parent == pytest.approx(np.var(y) * 3, rel=1e-12)


# Records every attempt to import numba, then runs a CLI subcommand (which
# fits the report's forests) and prints what was asked for.
_IMPORT_GUARD = """
import sys

asked = []


class Recorder:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numba":
            asked.append(name)
        return None


sys.meta_path.insert(0, Recorder())
from weldlab.cli import main

code = main(["taguchi"])
print(asked, code, file=sys.stderr)
"""


def test_numba_is_never_imported():
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD],
        capture_output=True, text=True, check=True,
    )
    assert out.stderr.splitlines()[-1] == "[] 0"
