import gc
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weldlab.cart
from weldlab._rng import SplitMix64, derive_seed
from weldlab.cart import (
    ClassDistribution,
    Internal,
    Leaf,
    SplitPartition,
    TreeConfig,
    _build_trees,
    _grow_levels,
    _grow_lockstep,
    _leaf_values,
    _padded,
    _route,
    _route_records,
    _split,
    build_tree,
    count_nodes,
    entropy,
    export_tree,
    fit_regression_tree,
    gain_ratio,
    gini_impurity,
    information_gain,
    predict_tree,
    split_info,
)
from weldlab.dataset import bootstrap_indices
from weldlab.kernels import _best_split_loops
from weldlab.pipeline import RunConfig, run_pipeline

from conftest import assert_split_optimal


def brute_entropy(labels):
    """Direct evaluation over a raw label list, independent of the module."""
    n = len(labels)
    out = 0.0
    for lab in set(labels):
        p = labels.count(lab) / n
        out -= p * math.log2(p)
    return out


def brute_information_gain(groups):
    parent = [lab for g in groups for lab in g]
    child_term = sum(
        (len(g) / len(parent)) * brute_entropy(g) for g in groups if g
    )
    return brute_entropy(parent) - child_term


class TestEntropy:
    def test_balanced_binary(self):
        assert entropy(ClassDistribution(counts=(1, 1))) == pytest.approx(1.0)

    def test_pure(self):
        assert entropy(ClassDistribution(counts=(5,))) == 0.0

    def test_uniform_four(self):
        assert entropy(ClassDistribution(counts=(2, 2, 2, 2))) == pytest.approx(2.0)

    def test_zero_count_class_ignored(self):
        assert entropy(ClassDistribution(counts=(4, 0))) == 0.0

    def test_bounded_by_log2_n(self):
        for counts in [(3, 1), (5, 2, 1), (9, 9, 9, 1)]:
            e = entropy(ClassDistribution(counts=counts))
            assert 0.0 <= e <= math.log2(len(counts)) + 1e-12

    def test_frequencies_sum_to_one(self):
        dist = ClassDistribution(counts=(3, 4, 5))
        assert sum(dist.frequencies) == pytest.approx(1.0, abs=1e-12)


class TestInformationGain:
    def test_perfect_separation(self):
        split = SplitPartition.from_label_groups([["A", "A"], ["B", "B"]])
        assert information_gain(split) == pytest.approx(1.0)

    def test_noop_split(self):
        split = SplitPartition.from_label_groups([["A", "A", "B", "B"]])
        assert information_gain(split) == pytest.approx(0.0)

    def test_hand_computed(self):
        split = SplitPartition.from_label_groups([["A", "A"], ["A", "B"]])
        assert information_gain(split) == pytest.approx(0.8113 - 0.5, abs=1e-4)

    def test_nonnegative_random_partitions(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            size = int(rng.integers(2, 13))
            labels = [int(v) for v in rng.integers(0, 4, size)]
            k = int(rng.integers(1, 5))
            cuts = sorted(rng.integers(0, size + 1, k - 1).tolist())
            groups, prev = [], 0
            for c in cuts + [size]:
                groups.append(labels[prev:c])
                prev = c
            groups = [g for g in groups if g] or [labels]
            split = SplitPartition.from_label_groups(groups)
            ig = information_gain(split)
            assert ig >= -1e-12
            assert ig == pytest.approx(brute_information_gain(groups), abs=1e-12)


class TestGainRatio:
    def test_even_binary_split(self):
        split = SplitPartition.from_label_groups([["A", "A"], ["B", "B"]])
        assert split_info(split) == pytest.approx(1.0)
        assert gain_ratio(split) == pytest.approx(1.0)

    def test_four_way_uniform(self):
        split = SplitPartition.from_label_groups([["A"], ["B"], ["C"], ["D"]])
        assert gain_ratio(split) == pytest.approx(2.0 / 2.0)

    def test_zero_gain_balanced_children(self):
        split = SplitPartition.from_label_groups([["A", "B"], ["A", "B"]])
        assert gain_ratio(split) == pytest.approx(0.0)

    def test_single_child_undefined(self):
        split = SplitPartition.from_label_groups([["A", "B", "B"]])
        with pytest.raises(ValueError):
            gain_ratio(split)

    def test_split_info_is_positive_sum(self):
        # the sign-normalized form: -sum(w log2 w) >= 0
        split = SplitPartition.from_label_groups([["A"], ["B", "B", "B"]])
        assert split_info(split) == pytest.approx(
            -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        )
        assert split_info(split) > 0

    @given(st.lists(st.integers(0, 2), min_size=2, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_gain_ratio_bounded_when_children_pure(self, labels):
        groups = [
            [lab for lab in labels if lab == v] for v in sorted(set(labels))
        ]
        if len(groups) < 2:
            return
        split = SplitPartition.from_label_groups(groups)
        gr = gain_ratio(split)
        assert -1e-12 <= gr <= 1.0 + 1e-12


class TestGini:
    def test_pure(self):
        assert gini_impurity(ClassDistribution(counts=(7,))) == 0.0

    def test_balanced_binary(self):
        assert gini_impurity(ClassDistribution(counts=(1, 1))) == pytest.approx(0.5)

    def test_uniform_three(self):
        assert gini_impurity(ClassDistribution(counts=(1, 1, 1))) == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )

    def test_bounded(self):
        for counts in [(3, 1), (5, 2, 1), (1, 1, 1, 1, 1)]:
            g = gini_impurity(ClassDistribution(counts=counts))
            assert 0.0 <= g <= 1.0 - 1.0 / len(counts) + 1e-12


class TestFitRegressionTree:
    def test_builtin_exact_fit(self, builtin):
        tree = fit_regression_tree(builtin)
        X = builtin.features()
        y = builtin.responses()
        pred = np.asarray([predict_tree(tree, row) for row in X])
        assert np.array_equal(pred, y)
        assert float(np.mean((pred - y) ** 2)) == 0.0

    def test_single_run_leaf(self):
        tree = build_tree(np.array([[1.0, 2.0]]), np.array([65.8]))
        assert tree == Leaf(value=65.8, n=1)

    def test_constant_response_single_leaf(self, constant_dataset):
        tree = fit_regression_tree(constant_dataset)
        assert isinstance(tree, Leaf)
        assert tree.value == 65.0

    def test_max_depth_respected(self, builtin):
        tree = fit_regression_tree(builtin, TreeConfig(max_depth=1))
        assert isinstance(tree, Internal)
        assert isinstance(tree.left, Leaf)
        assert isinstance(tree.right, Leaf)

    def test_min_samples_leaf_respected(self, builtin):
        tree = fit_regression_tree(builtin, TreeConfig(min_samples_leaf=3))

        def check(node):
            if isinstance(node, Leaf):
                assert node.n >= 3
            else:
                check(node.left)
                check(node.right)

        check(tree)

    def test_positive_decrease_everywhere(self, builtin):
        tree = fit_regression_tree(builtin)

        def check(node):
            if isinstance(node, Internal):
                assert node.decrease > 0
                check(node.left)
                check(node.right)

        check(tree)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_tree(np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("memo", [None, {}])
    def test_feature_subset_without_rng_rejected(self, builtin, memo):
        """It was ignored: every node searched every feature."""
        X, y = builtin.features(), builtin.responses()
        with pytest.raises(ValueError, match="needs an rng"):
            build_tree(X, y, TreeConfig(), None, 1, memo=memo)
        # searching every feature draws nothing and needs no rng
        assert build_tree(X, y, TreeConfig(), None, 3, memo=memo) == build_tree(X, y)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            TreeConfig(max_depth=-1)
        with pytest.raises(ValueError):
            TreeConfig(min_samples_leaf=0)
        with pytest.raises(ValueError):
            TreeConfig(min_impurity_decrease=-0.5)
        with pytest.raises(ValueError):
            TreeConfig(min_impurity_decrease=float("nan"))
        with pytest.raises(ValueError, match="must be finite"):
            TreeConfig(min_impurity_decrease=float("inf"))

    @pytest.mark.parametrize("field", ["max_depth", "min_samples_leaf"])
    @pytest.mark.parametrize(
        "value", [float("nan"), 1.5, 2.0, True, np.bool_(True), "2"]
    )
    def test_non_integer_depth_and_leaf_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TreeConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None])
    def test_non_real_min_impurity_decrease_rejected(self, value):
        with pytest.raises(ValueError, match="min_impurity_decrease must be a real"):
            TreeConfig(min_impurity_decrease=value)

    @pytest.mark.parametrize("value", [0, 2, np.int64(1), np.float32(0.5), 0.25])
    def test_real_min_impurity_decrease_accepted(self, value):
        assert TreeConfig(min_impurity_decrease=value).min_impurity_decrease == value

    def test_numpy_integer_depth_and_leaf_become_ints(self):
        cfg = TreeConfig(max_depth=np.int64(2), min_samples_leaf=np.int32(3))
        assert cfg == TreeConfig(max_depth=2, min_samples_leaf=3)
        assert type(cfg.max_depth) is int and type(cfg.min_samples_leaf) is int

    def test_min_impurity_decrease_prunes(self, builtin):
        shallow = fit_regression_tree(
            builtin, TreeConfig(min_impurity_decrease=1e9)
        )
        assert isinstance(shallow, Leaf)

    def test_split_search_matches_oracle_recursively(self):
        # every internal node's split must be oracle-optimal on its samples
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            p = int(rng.integers(1, 4))
            X = np.ascontiguousarray(rng.uniform(-4, 4, (n, p)))
            y = rng.uniform(0, 10, n)
            tree = build_tree(X, y)

            def check(node, Xs, ys):
                if isinstance(node, Leaf):
                    return
                assert_split_optimal(Xs, ys, node.feature, node.threshold)
                mask = Xs[:, node.feature] <= node.threshold
                check(node.left, Xs[mask], ys[mask])
                check(node.right, Xs[~mask], ys[~mask])

            check(tree, X, y)

    def test_predictions_within_training_range(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            X = np.ascontiguousarray(rng.uniform(-1, 1, (10, 3)))
            y = rng.uniform(5, 15, 10)
            tree = build_tree(X, y, TreeConfig(max_depth=2))
            queries = rng.uniform(-2, 2, (20, 3))
            for q in queries:
                assert y.min() <= predict_tree(tree, q) <= y.max()


class TestRecursionKernel:
    @pytest.mark.parametrize("kw, nodes", [
        ({"model": "gbm"}, 3558),  # 500 stage trees
        ({"model": "gbm", "depth": 3}, 2859),
        ({}, 8),  # the CART tree of a forest report
    ])
    def test_report_nodes_are_scored_on_lists(self, monkeypatch, kw, nodes):
        """A seed-0 report's recursion scores each of its nodes with one
        `_best_split_loops` call, never through the numpy-array adaptor
        `best_split`."""
        calls = Counter()
        for name in ("_best_split_loops", "best_split"):
            def counting(*args, name=name, kernel=getattr(weldlab.cart, name)):
                calls[name] += 1
                return kernel(*args)

            monkeypatch.setattr(weldlab.cart, name, counting)
        run_pipeline(RunConfig(seed=0, **kw))
        assert calls["_best_split_loops"] == nodes
        assert calls["best_split"] == 0


def grid_data(seed, n=12, p=3):
    """Few distinct levels and responses, so many nodes repeat and tie."""
    gen = np.random.default_rng(seed)
    X = np.ascontiguousarray(gen.integers(0, 3, (n, p)), dtype=np.float64)
    return X, gen.integers(0, 5, n).astype(np.float64)


class TestRowsAndMemo:
    def test_rows_equal_the_copied_sample(self):
        gen = np.random.default_rng(41)
        for trial in range(80):
            n = int(gen.integers(1, 12))
            p = int(gen.integers(1, 4))
            X = np.ascontiguousarray(gen.uniform(-3, 3, (n, p)))
            y = gen.uniform(0, 10, n)
            rows = gen.integers(0, n, int(gen.integers(1, 2 * n + 1)))
            cfg = TreeConfig(
                max_depth=int(gen.integers(0, 3)),
                min_samples_leaf=int(gen.integers(1, 3)),
            )
            m = int(gen.integers(1, p + 1))
            expect = build_tree(X[rows], y[rows], cfg, SplitMix64(trial), m)
            got = build_tree(X, y, cfg, SplitMix64(trial), m, rows=rows)
            assert got == expect

    def test_default_rows_are_every_row_once(self):
        X, y = grid_data(3)
        assert build_tree(X, y, rows=range(12)) == build_tree(X, y)

    @pytest.mark.parametrize("rows", [[], [0, 12], [-1, 0], [[0, 1]], [0.0, 1.5]])
    def test_bad_rows_rejected(self, rows):
        X, y = grid_data(3)
        with pytest.raises(ValueError):
            build_tree(X, y, rows=rows)

    @pytest.mark.parametrize("rows", [[-1, 0], [0, 12],
                                      np.array([2**63], np.uint64)])
    def test_out_of_range_rows_rejected(self, rows):
        """2^63 as a uint64 id wraps negative once cast to np.intp."""
        X, y = grid_data(3)
        with pytest.raises(ValueError, match=r"^row ids must be in \[0, 12\)$"):
            build_tree(X, y, rows=rows)
        with pytest.raises(ValueError, match=r"^row ids must be in \[0, 12\)$"):
            build_tree(X, y, rows=rows, memo={})

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_narrow_integer_rows_accepted(self, dtype):
        X, y = grid_data(3)
        rows = [0, 3, 3, 11, 7]
        memo: dict = {}
        tree = build_tree(X, y, rows=np.array(rows, dtype), memo=memo)
        assert tree == build_tree(X, y, rows=np.array(rows, dtype))
        assert tree == build_tree(X[rows], y[rows])
        # the same memo key as np.intp rows
        assert build_tree(X, y, rows=rows, memo=memo) is tree

    @pytest.mark.parametrize("m", [3, 1])  # m < p: the memo is ignored
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("min_leaf", [1, 2])
    @pytest.mark.parametrize("max_depth", [0, 2])
    def test_memo_on_equals_memo_off(self, builtin, max_depth, min_leaf,
                                     bootstrap, m):
        cfg = TreeConfig(max_depth=max_depth, min_samples_leaf=min_leaf)
        for X, y in [(builtin.features(), builtin.responses()), grid_data(5)]:
            n = y.shape[0]
            for seed in range(3):
                memo: dict = {}
                for t in range(20):
                    ts = derive_seed(seed, t)
                    rows = bootstrap_indices(n, ts) if bootstrap else None
                    on_rng, off_rng = SplitMix64(ts), SplitMix64(ts)
                    on = build_tree(X, y, cfg, on_rng, m, rows=rows, memo=memo)
                    off = build_tree(X, y, cfg, off_rng, m, rows=rows)
                    assert on == off
                    # both trees left the rng stream at the same position
                    assert on_rng.next_u64() == off_rng.next_u64()
                assert bool(memo) == (m == X.shape[1])

    def test_memo_tells_depths_apart_under_max_depth(self, builtin):
        X, y = builtin.features(), builtin.responses()
        cfg = TreeConfig(max_depth=1)
        memo: dict = {}
        first = build_tree(X, y, cfg, memo=memo)
        # the first tree's depth-1 left leaf, grown again as a root
        left_rows = np.flatnonzero(X[:, first.feature] <= first.threshold)
        second = build_tree(X, y, cfg, rows=left_rows, memo=memo)
        assert isinstance(second, Internal)
        assert second == build_tree(X, y, cfg, rows=left_rows)

    def test_repeated_rows_reuse_the_built_subtree(self, builtin):
        X, y = builtin.features(), builtin.responses()
        memo: dict = {}
        first = build_tree(X, y, memo=memo)
        assert build_tree(X, y, memo=memo) is first
        left_rows = np.flatnonzero(X[:, first.feature] <= first.threshold)
        assert build_tree(X, y, rows=left_rows, memo=memo) is first.left

    def test_build_leaves_no_reference_cycle(self, builtin):
        # a cycle would keep each call's arrays and a forest's memo alive
        # until the cyclic collector runs, raising peak memory
        X, y = builtin.features(), builtin.responses()
        gc.collect()
        gc.disable()
        try:
            build_tree(X, y, memo={})
            build_tree(X, y, TreeConfig(max_depth=2), SplitMix64(1), 2,
                       rows=[0, 3, 3, 8, 5])
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGrowLevels:
    """`_grow_levels` against `build_tree` grown one tree at a time."""

    @pytest.mark.parametrize("kind", ["continuous", "grid"])
    def test_memoised_trees_equal_trees_grown_alone(self, kind, monkeypatch):
        gen = np.random.default_rng(len(kind))
        for _ in range(60):
            n = int(gen.integers(1, 25))
            p = int(gen.integers(1, 5))
            if kind == "grid":
                X, y = grid_data(int(gen.integers(1 << 30)), n, p)
            else:
                X = np.ascontiguousarray(gen.uniform(-3, 3, (n, p)))
                y = gen.uniform(0, 10, n)
            cfg = TreeConfig(
                max_depth=int(gen.choice([0, 1, 3])),
                min_samples_leaf=int(gen.integers(1, 4)),
                min_impurity_decrease=float(gen.choice([0.0, 0.05, 0.5])),
            )
            roots = [gen.integers(0, n, n) for _ in range(int(gen.integers(1, 12)))]
            roots += roots[:2] + [np.arange(n), np.arange(n)[1:] if n > 1 else [0]]
            memo: dict = {}
            _grow_levels(X, y, roots, cfg, memo)
            with monkeypatch.context() as m:
                # every node is in the memo: no kernel runs again
                m.setattr(weldlab.cart, "_best_split_loops", None)
                m.setattr(weldlab.cart, "best_splits", None)
                _grow_levels(X, y, roots, cfg, memo)
                trees = [build_tree(X, y, cfg, rows=r, memo=memo) for r in roots]
            for rows, tree in zip(roots, trees):
                assert tree == build_tree(X[rows], y[rows], cfg)

    @pytest.mark.parametrize("cfg", [TreeConfig(), TreeConfig(max_depth=2),
                                     TreeConfig(min_samples_leaf=2)])
    @pytest.mark.parametrize("rows", [None, [0, 3, 3, 8, 5, 5, 1, 7, 2]])
    def test_memo_tree_is_grown_level_by_level(self, builtin, monkeypatch,
                                               cfg, rows):
        X, y = builtin.features(), builtin.responses()
        alone = build_tree(X, y, cfg, rows=rows)

        def refuse(*args):
            raise AssertionError("a memo tree was grown node by node")

        monkeypatch.setattr(weldlab.cart, "_best_split_loops", refuse)
        assert build_tree(X, y, cfg, rows=rows, memo={}) == alone

    @pytest.mark.parametrize("cap", [None, 20])
    def test_calls_mix_sizes_under_the_row_cap(self, builtin, monkeypatch,
                                               batch_calls, cap):
        """Each level's new nodes, sorted by falling size, fill calls of at
        most the row cap, counting pads: B nodes x the largest size."""
        if cap is not None:
            monkeypatch.setattr(weldlab.cart, "_CALL_ROWS", cap)
        cap = weldlab.cart._CALL_ROWS
        X, y = builtin.features(), builtin.responses()
        roots = [bootstrap_indices(9, derive_seed(5, t)) for t in range(200)]
        memo: dict = {}
        _grow_levels(X, y, roots, TreeConfig(), memo)
        assert all(len(sizes) * width <= cap for sizes, width in batch_calls)
        assert all(width == max(sizes) and min(sizes) >= 1
                   for sizes, width in batch_calls)
        # Nodes of different sizes share calls.
        assert any(len(set(sizes)) > 1 for sizes, _ in batch_calls)
        with monkeypatch.context() as m:
            m.setattr(weldlab.cart, "best_splits", None)
            trees = [build_tree(X, y, rows=r, memo=memo) for r in roots]
        for rows, tree in zip(roots, trees):
            assert tree == build_tree(X[rows], y[rows])

    def test_default_report_calls_are_few(self, batch_calls):
        """A default report (seed 0) scores 4,830 nodes in batches: 18
        calls, with the final forest and its leave-one-out folds grown in
        one pass that shares one memo (41 calls with one pass per forest,
        134 with one call per node size; 5,084 nodes when the final forest
        had its own memo)."""
        run_pipeline(RunConfig(seed=0))
        assert sum(len(sizes) for sizes, _ in batch_calls) == 4830
        assert len(batch_calls) == 18

    def test_memo_holds_only_built_nodes(self, builtin):
        """A pass writes only `Leaf` and `Internal` values, also when its
        trees reuse nodes that an earlier pass built, and keeps those."""
        X, y = builtin.features(), builtin.responses()
        memo: dict = {}
        _grow_levels(X, y, [bootstrap_indices(9, s) for s in range(20)],
                     TreeConfig(), memo)
        before = dict(memo)
        roots = [bootstrap_indices(9, s) for s in range(10, 60)]
        _grow_levels(X, y, roots, TreeConfig(), memo)
        assert all(type(key) is bytes for key in memo)
        assert all(type(node) in (Leaf, Internal) for node in memo.values())
        assert all(memo[key] is node for key, node in before.items())
        old = {id(node) for node in before.values()}
        assert any(id(node.left) in old or id(node.right) in old
                   for key, node in memo.items()
                   if key not in before and isinstance(node, Internal))
        for rows in roots:
            assert build_tree(X, y, rows=rows, memo=memo) == build_tree(
                X[rows], y[rows])

    def test_a_failing_pass_leaves_the_memo_as_it_was(self, builtin,
                                                      monkeypatch):
        X, y = builtin.features(), builtin.responses()
        memo: dict = {}
        _grow_levels(X, y, [np.arange(9)], TreeConfig(), memo)
        before = list(memo.items())
        calls = []
        batch_kernel = weldlab.cart.best_splits

        def failing(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("kernel failed")
            return batch_kernel(*args)

        monkeypatch.setattr(weldlab.cart, "best_splits", failing)
        roots = [bootstrap_indices(9, s) for s in range(200)]
        with pytest.raises(RuntimeError, match="kernel failed"):
            _grow_levels(X, y, roots, TreeConfig(), memo)
        assert len(calls) == 2
        assert list(memo.items()) == before
        assert all(memo[key] is node for key, node in before)

    def test_threshold_rounding_onto_the_lower_value_goes_left(self):
        # the midpoint of two adjacent floats rounds to the lower one
        lo = 1.0
        X = np.array([[np.nextafter(lo, 2.0)], [lo], [lo]])
        y = np.array([5.0, 1.0, 2.0])
        memo: dict = {}
        _grow_levels(X, y, [np.arange(3)], TreeConfig(), memo)
        tree = build_tree(X, y, memo=memo)
        assert tree.threshold == lo
        assert (tree.left.n, tree.right.n) == (2, 1)
        assert tree == build_tree(X, y)


class TestGrowLockstep:
    """`_grow_lockstep` against `build_tree` grown one tree at a time, each
    with a `SplitMix64` seeded as its lane."""

    @pytest.mark.parametrize("kind", ["continuous", "grid"])
    def test_trees_and_lanes_equal_trees_grown_alone(self, kind):
        gen = np.random.default_rng(7 + len(kind))
        for _ in range(60):
            n = int(gen.integers(1, 30))
            p = int(gen.integers(2, 6))
            if kind == "grid":
                X, y = grid_data(int(gen.integers(1 << 30)), n, p)
            else:
                X = np.ascontiguousarray(gen.uniform(-3, 3, (n, p)))
                y = gen.uniform(0, 10, n)
            cfg = TreeConfig(
                max_depth=int(gen.choice([0, 1, 3])),
                min_samples_leaf=int(gen.integers(1, 4)),
                min_impurity_decrease=float(gen.choice([0.0, 0.05, 0.5])),
            )
            m = int(gen.integers(1, p))
            roots = [gen.integers(0, n, int(gen.integers(1, n + 1)))
                     for _ in range(int(gen.integers(1, 12)))]
            seeds = [int(s) for s in gen.integers(0, 2**63, len(roots))]
            lanes = np.array(seeds, dtype=np.uint64)
            rec = _grow_lockstep(X, y, roots, lanes, m, cfg)
            trees = _build_trees(rec, 0, len(roots))
            for rows, seed, state, tree in zip(roots, seeds, lanes.tolist(),
                                               trees, strict=True):
                rng = SplitMix64(seed)
                assert tree == build_tree(X[rows], y[rows], cfg, rng, m)
                assert state == rng._state
            # Any run of trees builds alone as it builds among all.
            first = int(gen.integers(0, len(roots)))
            stop = int(gen.integers(first, len(roots) + 1))
            assert _build_trees(rec, first, stop) == trees[first:stop]
            # Every row routed from every root through the records.
            pairs = [(r, t) for r in range(n) for t in range(len(roots))]
            rows, nodes = map(np.array, zip(*pairs))
            got = _route_records(rec, X, rows, nodes).tolist()
            assert got == [_route(trees[t], X[r].tolist()) for r, t in pairs]

    def test_records(self, builtin):
        """Tree t's root is node t; a child's id is larger than its
        parent's and belongs to the parent's tree."""
        X, y = builtin.features(), builtin.responses()
        roots = [bootstrap_indices(9, s) for s in range(30)]
        rec = _grow_lockstep(X, y, roots, np.arange(30, dtype=np.uint64), 2,
                             TreeConfig())
        assert rec.tree[:30].tolist() == list(range(30))
        split = np.flatnonzero(rec.feature >= 0)
        for kid in (rec.child[split], rec.child[split] + 1):
            assert np.all(kid > split)
            assert np.array_equal(rec.tree[kid], rec.tree[split])
        assert np.array_equal(rec.n[split], rec.n[rec.child[split]]
                              + rec.n[rec.child[split] + 1])
        assert len({len(col) for col in rec}) == 1


class TestSplit:
    """`_split` on nodes that are random slices of one row-id buffer,
    against `_best_split_loops` on each node's rows."""

    @pytest.mark.parametrize("cap", [None, 64])
    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_nodes_equal_the_list_loop_and_slices_partition(
            self, kind, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(weldlab.cart, "_CALL_ROWS", cap)
        gen = np.random.default_rng(40 + len(kind) + (cap or 0))
        for _ in range(40):
            n_rows = int(gen.integers(1, 30))
            p = int(gen.integers(1, 5))
            if kind == "tied":
                X = gen.integers(0, 3, (n_rows, p)).astype(np.float64)
                y = gen.integers(0, 3, n_rows).astype(np.float64)
            else:
                X = gen.uniform(-3, 3, (n_rows, p))
                y = gen.uniform(0, 10, n_rows)
            cfg = TreeConfig(min_samples_leaf=int(gen.integers(1, 4)))
            # Nodes of 1-40 rows, in no order of size, at disjoint slices of
            # a buffer of row ids with gaps between them.
            size = gen.integers(1, 41, int(gen.integers(1, 12)))
            start = np.cumsum(size + gen.integers(0, 3, size.size)) - size
            buf = gen.integers(0, n_rows, start[-1] + size[-1] + 2)
            if gen.random() < 0.5:
                features = np.broadcast_to(np.arange(p), (size.size, p))
            else:
                k = int(gen.integers(1, p + 1))
                features = np.array([np.sort(gen.choice(p, k, replace=False))
                                     for _ in size.tolist()])
            before = buf.copy()
            feat, thr, dec, n_left, constant = _split(
                *_padded(X, y), buf, start, size, features, cfg)
            after = buf.copy()
            for i, (s, n) in enumerate(zip(start.tolist(), size.tolist())):
                rows = before[s:s + n]
                f, t, children, parent = _best_split_loops(
                    X[rows].tolist(), y[rows].tolist(), features[i].tolist(),
                    cfg.min_samples_leaf)
                if f < 0 or (parent - children) / n <= 0.0:
                    assert feat[i] == -1
                    assert np.array_equal(buf[s:s + n], rows)
                    continue
                assert (feat[i], thr[i], dec[i]) == (f, t, (parent - children) / n)
                left = X[rows, f] <= t
                assert n_left[i] == left.sum()
                assert np.array_equal(buf[s:s + n],
                                      np.concatenate((rows[left], rows[~left])))
                for side, kid in enumerate((rows[left], rows[~left])):
                    assert constant[i, side] == (np.ptp(y[kid]) == 0.0)
                after[s:s + n] = before[s:s + n]
            # No cell outside a split node's slice moved.
            assert np.array_equal(after, before)


class TestLeafValues:
    @pytest.mark.parametrize("size", range(1, 21))
    def test_grouped_values_equal_leaf(self, size):
        gen = np.random.default_rng(size)
        # Magnitudes far apart, so that another summation order would
        # round differently.
        y = gen.normal(60.0, 7.0, 30) * 10.0 ** gen.integers(-8, 9, 30)
        # Many leaves of this size among leaves of others, in one buffer.
        sizes = gen.permutation(np.r_[np.full(200, size), gen.integers(1, 21, 12)])
        rows = gen.integers(0, y.size, sizes.sum())
        starts = np.cumsum(sizes) - sizes
        got = _leaf_values(y, rows, starts, sizes)
        for value, start, n in zip(got.tolist(), starts, sizes):
            assert value == float(y[rows[start:start + n]].mean())


class TestPredictTree:
    def test_run6_routed_exactly(self, builtin):
        tree = fit_regression_tree(builtin)
        assert predict_tree(tree, builtin.features()[5]) == 74.2

    def test_single_leaf_any_input(self):
        leaf = Leaf(value=9.5, n=3)
        assert predict_tree(leaf, [0.0, 0.0, 0.0]) == 9.5
        assert predict_tree(leaf, [1e9]) == 9.5

    def test_boundary_goes_left(self):
        tree = Internal(
            feature=0, threshold=2.0, decrease=1.0, n=4,
            left=Leaf(value=1.0, n=2), right=Leaf(value=5.0, n=2),
        )
        assert predict_tree(tree, [2.0]) == 1.0
        assert predict_tree(tree, [2.0000001]) == 5.0

    def test_arity_mismatch_rejected(self, builtin):
        tree = fit_regression_tree(builtin)
        with pytest.raises(ValueError, match="feature vector has 1 entries "
                           "but the tree references feature index"):
            predict_tree(tree, [800.0])


class TestExportTree:
    def test_single_leaf_one_line(self):
        out = export_tree(Leaf(value=65.8, n=1))
        lines = out.strip().split("\n")
        assert len(lines) == 1
        assert "65.8" in lines[0]
        assert "n=1" in lines[0]

    def test_depth_one_three_lines(self):
        tree = Internal(
            feature=0, threshold=2.0, decrease=1.0, n=4,
            left=Leaf(value=1.0, n=2), right=Leaf(value=5.0, n=2),
        )
        assert len(export_tree(tree).strip().split("\n")) == 3

    def test_builtin_binary_tree_identity(self, builtin):
        tree = fit_regression_tree(builtin)
        internal, leaves = count_nodes(tree)
        assert internal == leaves - 1

    def test_feature_names_used(self, builtin):
        tree = fit_regression_tree(builtin, TreeConfig(max_depth=1))
        out = export_tree(tree, "text", feature_names=builtin.factor_names)
        assert out.splitlines()[0].split(" <= ")[0] in builtin.factor_names

    def test_graph_format(self, builtin):
        tree = fit_regression_tree(builtin, TreeConfig(max_depth=1))
        dot = export_tree(tree, "graph")
        assert dot.startswith("digraph tree {")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == 2

    def test_deterministic(self, builtin):
        a = export_tree(fit_regression_tree(builtin), "text")
        b = export_tree(fit_regression_tree(builtin), "text")
        assert a == b

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_tree(Leaf(value=1.0, n=1), "svg")
