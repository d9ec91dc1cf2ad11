import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weldlab._rng import SplitMix64, derive_seed
from weldlab.cart import (
    ClassDistribution,
    Internal,
    Leaf,
    SplitPartition,
    TreeConfig,
    build_tree,
    count_nodes,
    entropy,
    export_tree,
    fit_regression_tree,
    gain_ratio,
    gini_impurity,
    information_gain,
    predict_tree,
    predict_tree_many,
    split_info,
)
from weldlab.dataset import bootstrap_indices

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
        pred = predict_tree_many(tree, X)
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

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            TreeConfig(max_depth=-1)
        with pytest.raises(ValueError):
            TreeConfig(min_samples_leaf=0)
        with pytest.raises(ValueError):
            TreeConfig(min_impurity_decrease=-0.5)

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
        with pytest.raises(ValueError):
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
