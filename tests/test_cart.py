import gc
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weldlab.cart
import weldlab.ensemble
from weldlab._rng import SplitMix64, derive_seed
from weldlab.cart import (
    ClassDistribution,
    Internal,
    Leaf,
    SplitPartition,
    TreeConfig,
    _build_trees,
    _grow_forests,
    _key_ids,
    _leaf_values,
    _padded,
    _preorder,
    _route,
    _route_records,
    _setting_codes,
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

from conftest import assert_split_optimal, subset_tree


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
    def test_no_feature_columns_rejected(self, memo):
        """With nothing to split on, every tree would be a bare leaf; the
        check comes before any memo read."""
        with pytest.raises(ValueError, match="no feature columns"):
            build_tree(np.empty((3, 0)), np.ones(3), memo=memo)

    @pytest.mark.parametrize("memo", [None, {}])
    @pytest.mark.parametrize("x, y", [
        (np.nan, 2.0),  # failed with "min() arg is an empty sequence"
        (np.inf, 2.0),  # threshold (3 + inf) / 2: every row went left, forever
        (2.0, np.nan),  # grew a Leaf(value=nan, n=3)
    ])
    def test_non_finite_data_rejected(self, memo, x, y):
        """Before anything grows; with a memo the NaN feature failed in a
        numpy broadcast."""
        with pytest.raises(ValueError, match="must be finite"):
            build_tree(np.array([[1.0], [x], [3.0]]), np.array([1.0, y, 3.0]),
                       memo=memo)
        assert not memo

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
    @pytest.mark.parametrize("kw, nodes, builds", [
        ({"model": "gbm"}, 3558, 1),  # 500 stage trees
        ({"model": "gbm", "depth": 3}, 2859, 1),
        ({}, 8, 2001),  # the CART tree, and 2,000 forest read-backs
    ])
    def test_report_nodes_are_scored_on_lists(self, monkeypatch, kw, nodes,
                                              builds):
        """A seed-0 report's recursion scores each of its nodes with one
        `_best_split_loops` call, never through the numpy-array adaptor
        `best_split`.  Boosting rounds grow their stages without the public
        `build_tree` (it took 501 calls per gbm report); only the CART tree
        and the forest read-backs call it."""
        calls = Counter()
        for module, name in ((weldlab.cart, "_best_split_loops"),
                             (weldlab.cart, "best_split"),
                             (weldlab.cart, "build_tree"),
                             (weldlab.ensemble, "build_tree")):
            def counting(*args, name=name, real=getattr(module, name),
                         **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        run_pipeline(RunConfig(seed=0, **kw))
        assert calls["_best_split_loops"] == nodes
        assert calls["best_split"] == 0
        assert calls["build_tree"] == builds


def grid_data(seed, n=12, p=3):
    """Few distinct levels and responses, so many nodes repeat and tie."""
    gen = np.random.default_rng(seed)
    X = np.ascontiguousarray(gen.integers(0, 3, (n, p)), dtype=np.float64)
    return X, gen.integers(0, 5, n).astype(np.float64)


def memo_of(X, y, roots, cfg):
    """The table that `_fit_models` gives its `build_tree` read-backs:
    the key of each distinct root of one keyed `_grow_forests` pass, to its
    tree built from the pass's records."""
    rec, keys, _ = _grow_forests(X, y, roots, cfg)
    return dict(zip(keys, _build_trees(rec, np.arange(rec.n.size))))


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
            expect = build_tree(X[rows], y[rows], cfg)
            got = build_tree(X, y, cfg, rows=rows)
            assert got == expect
            # Searching every feature, the library's recursion is the
            # reference recursion.
            assert got == subset_tree(X[rows], y[rows], cfg, SplitMix64(trial), p)

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

    @pytest.mark.parametrize("rows, match", [
        ([0, 12], r"^row ids must be in \[0, 12\)$"),
        ([-1, 0], r"^row ids must be in \[0, 12\)$"),
        ([0.0, 1.5], "^rows must be a non-empty 1-d sequence of integer row ids$"),
    ])
    def test_a_memo_miss_checks_its_rows(self, rows, match):
        """The memo is read before the range check; a miss is still
        checked."""
        X, y = grid_data(3)
        memo = memo_of(X, y, [[0, 1], np.arange(12)], TreeConfig())
        with pytest.raises(ValueError, match=match):
            build_tree(X, y, rows=rows, memo=memo)

    @pytest.mark.parametrize("max_depth", [0, 2])
    def test_a_memo_hit_is_the_memo_tree_and_a_miss_checks_the_data(
            self, max_depth):
        X, y = grid_data(3)
        cfg = TreeConfig(max_depth=max_depth)
        memo = memo_of(X, y, [[0, 3, 3, 11], np.arange(12)], cfg)
        first, whole = memo.values()
        assert build_tree(X, y, cfg, rows=[0, 3, 3, 11], memo=memo) is first
        assert build_tree(X, y, cfg, memo=memo) is whole
        assert build_tree(X, y, cfg, rows=np.arange(12), memo=memo) is whole
        for bad in (X.copy(), y.copy()):
            bad.flat[5] = np.nan
            Xb, yb = (bad, y) if bad.ndim == 2 else (X, bad)
            with pytest.raises(ValueError, match="^X and y must be finite$"):
                build_tree(Xb, yb, cfg, rows=[0, 3, 11], memo=memo)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_narrow_integer_rows_accepted(self, dtype):
        X, y = grid_data(3)
        rows = [0, 3, 3, 11, 7]
        memo = memo_of(X, y, [rows], TreeConfig())
        (tree,) = memo.values()
        # the same memo key as np.intp rows
        assert build_tree(X, y, rows=np.array(rows, dtype), memo=memo) is tree
        assert tree == build_tree(X, y, rows=np.array(rows, dtype))
        assert tree == build_tree(X[rows], y[rows])

    @pytest.mark.parametrize("m", [3, 1])  # m < p: lanes, and no memo
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("min_leaf", [1, 2])
    @pytest.mark.parametrize("max_depth", [0, 2])
    def test_memo_on_equals_memo_off(self, builtin, max_depth, min_leaf,
                                     bootstrap, m):
        """A forest's tree equals the tree grown alone: at m = p read back
        from the keyed pass's memo, at m < p taken from a pass on lanes,
        which keys nothing, against the reference recursion."""
        cfg = TreeConfig(max_depth=max_depth, min_samples_leaf=min_leaf)
        for X, y in [(builtin.features(), builtin.responses()), grid_data(5)]:
            n, p = X.shape
            for seed in range(3):
                seeds = [derive_seed(seed, t) for t in range(20)]
                roots = [bootstrap_indices(n, ts) if bootstrap
                         else np.arange(n) for ts in seeds]
                memo = memo_of(X, y, roots, cfg)
                lanes = np.array(seeds, dtype=np.uint64)
                if m < p:
                    rec, keys, _ = _grow_forests(X, y, roots, cfg, lanes, m)
                    assert keys == []
                    laned = _build_trees(rec, np.arange(rec.n.size))
                for t, (ts, rows) in enumerate(zip(seeds, roots)):
                    if m == p:
                        rows = rows if bootstrap else None
                        on = build_tree(X, y, cfg, rows=rows, memo=memo)
                        off = build_tree(X, y, cfg, rows=rows)
                    else:
                        on, rng = laned[t], SplitMix64(ts)
                        off = subset_tree(X[rows], y[rows], cfg, rng, m)
                        # both left the rng stream at the same position
                        assert int(lanes[t]) == rng._state
                    assert on == off
                    # read from the memo exactly when no node draws
                    assert any(on is tree for tree in memo.values()) == (
                        m == p)

    def test_memo_tells_depths_apart_under_max_depth(self, builtin):
        X, y = builtin.features(), builtin.responses()
        cfg = TreeConfig(max_depth=1)
        whole = build_tree(X, y, cfg)
        # the first tree's depth-1 left leaf, grown in the same pass as a root
        left_rows = np.flatnonzero(X[:, whole.feature] <= whole.threshold)
        memo = memo_of(X, y, [np.arange(9), left_rows], cfg)
        first = build_tree(X, y, cfg, memo=memo)
        second = build_tree(X, y, cfg, rows=left_rows, memo=memo)
        assert first == whole and isinstance(first.left, Leaf)
        assert isinstance(second, Internal)
        assert second == build_tree(X, y, cfg, rows=left_rows)

    def test_repeated_rows_reuse_the_built_subtree(self, builtin):
        """Within one pass: a root equal to another tree's node is that
        node, and a repeated root is built once."""
        X, y = builtin.features(), builtin.responses()
        whole = build_tree(X, y)
        left_rows = np.flatnonzero(X[:, whole.feature] <= whole.threshold)
        memo = memo_of(X, y, [np.arange(9), left_rows, np.arange(9)],
                       TreeConfig())
        assert len(memo) == 2
        first = build_tree(X, y, memo=memo)
        assert first == whole
        assert build_tree(X, y, memo=memo) is first
        assert build_tree(X, y, rows=left_rows, memo=memo) is first.left

    def test_build_leaves_no_reference_cycle(self, builtin):
        # a cycle would keep each call's arrays and a forest's memo alive
        # until the cyclic collector runs, raising peak memory
        X, y = builtin.features(), builtin.responses()
        gc.collect()
        gc.disable()
        try:
            build_tree(X, y, memo=memo_of(X, y, [np.arange(9)], TreeConfig()))
            build_tree(X, y, TreeConfig(max_depth=2), rows=[0, 3, 3, 8, 5])
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGrowLevels:
    """`_grow_forests` without lanes, level by level and keyed, against
    `build_tree` grown one tree at a time."""

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
            memo = memo_of(X, y, roots, cfg)
            # one entry per distinct root
            assert len(memo) == len(
                {np.asarray(r, np.intp).tobytes() for r in roots})
            with monkeypatch.context() as m:
                # every root is in the memo: no kernel runs again
                m.setattr(weldlab.cart, "_best_split_loops", None)
                m.setattr(weldlab.cart, "best_splits", None)
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
        memo = memo_of(X, y, [np.arange(9) if rows is None else rows], cfg)
        (tree,) = memo.values()
        assert tree == alone
        assert build_tree(X, y, cfg, rows=rows, memo=memo) is tree

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
        memo = memo_of(X, y, roots, TreeConfig())
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
        """A pass returns only `Leaf` and `Internal` values under the bytes
        keys of its roots, and its trees share the nodes they reach in
        common."""
        X, y = builtin.features(), builtin.responses()
        roots = [bootstrap_indices(9, s) for s in range(60)]
        memo = memo_of(X, y, roots, TreeConfig())
        assert all(type(key) is bytes for key in memo)
        assert set(memo) == {np.asarray(r, np.intp).tobytes() for r in roots}
        assert all(type(node) in (Leaf, Internal) for node in memo.values())

        def nodes(t):
            yield id(t)
            if isinstance(t, Internal):
                yield from nodes(t.left)
                yield from nodes(t.right)

        owners = Counter(i for t in memo.values() for i in set(nodes(t)))
        assert max(owners.values()) > 1
        for rows in roots:
            assert build_tree(X, y, rows=rows, memo=memo) == build_tree(
                X[rows], y[rows])

    def test_threshold_rounding_onto_the_lower_value_goes_left(self):
        # the midpoint of two adjacent floats rounds to the lower one
        lo = 1.0
        X = np.array([[np.nextafter(lo, 2.0)], [lo], [lo]])
        y = np.array([5.0, 1.0, 2.0])
        memo = memo_of(X, y, [np.arange(3)], TreeConfig())
        tree = build_tree(X, y, memo=memo)
        assert list(memo.values()) == [tree]
        assert tree.threshold == lo
        assert (tree.left.n, tree.right.n) == (2, 1)
        assert tree == build_tree(X, y)


class TestGrowLockstep:
    """`_grow_forests` with lanes, in lockstep, against the reference
    recursion `subset_tree` grown one tree at a time, each with a
    `SplitMix64` seeded as its lane."""

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
            rec, keys, root_ids = _grow_forests(X, y, roots, cfg, lanes, m)
            assert keys == []
            assert root_ids.tolist() == list(range(len(roots)))
            trees = _build_trees(rec, np.arange(rec.n.size))[:len(roots)]
            for rows, seed, state, tree in zip(roots, seeds, lanes.tolist(),
                                               trees, strict=True):
                rng = SplitMix64(seed)
                assert tree == subset_tree(X[rows], y[rows], cfg, rng, m)
                assert state == rng._state
            # Any run of trees builds alone as it builds among all.
            first = int(gen.integers(0, len(roots)))
            stop = int(gen.integers(first, len(roots) + 1))
            ids = np.flatnonzero((rec.tree >= first) & (rec.tree < stop))
            assert _build_trees(rec, ids)[first:stop] == trees[first:stop]
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
        rec, _, _ = _grow_forests(X, y, roots, TreeConfig(),
                               np.arange(30, dtype=np.uint64), 2)
        assert rec.tree[:30].tolist() == list(range(30))
        split = np.flatnonzero(rec.feature >= 0)
        for kid in (rec.child[split, 0], rec.child[split, 1]):
            assert np.all(kid > split)
            assert np.array_equal(rec.tree[kid], rec.tree[split])
        assert np.array_equal(rec.n[split], rec.n[rec.child[split, 0]]
                              + rec.n[rec.child[split, 1]])
        assert len({len(col) for col in rec}) == 1


class TestRecords:
    """The records of one `_grow_forests` pass, keyed (a DAG whose nodes
    trees share) and with lanes."""

    CONFIGS = [TreeConfig(), TreeConfig(max_depth=2),
               TreeConfig(min_samples_leaf=2)]

    @staticmethod
    def _roots(n):
        """Bootstraps, repeated roots, and roots equal to other trees'
        nodes."""
        roots = [bootstrap_indices(n, s) for s in range(40)]
        return roots + roots[:3] + [np.arange(n), np.arange(n)[: n // 2]]

    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("keyed", [True, False])
    def test_children_split_their_parent(self, builtin, keyed, cfg):
        for X, y in [(builtin.features(), builtin.responses()), grid_data(5)]:
            roots = self._roots(y.size)
            lanes = None if keyed else np.arange(len(roots), dtype=np.uint64)
            rec, _, _ = _grow_forests(X, y, roots, cfg, lanes, 0 if keyed else 2)
            assert len({len(col) for col in rec}) == 1
            split = np.flatnonzero(rec.feature >= 0)
            left, right = rec.child[split, 0], rec.child[split, 1]
            assert np.all(rec.n[left] < rec.n[split])
            assert np.all(rec.n[right] < rec.n[split])
            assert np.array_equal(rec.n[left] + rec.n[right], rec.n[split])

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_one_record_per_distinct_key(self, builtin, cfg):
        """A keyed pass makes one record per distinct (row ids, depth under
        a depth limit) of the nodes of its trees, each grown alone, and
        returns the key of each distinct root, once."""

        def key(rows, depth):
            suffix = np.intp(depth).tobytes() if cfg.max_depth else b""
            return rows.tobytes() + suffix

        def node_keys(tree, rows, depth):
            yield key(rows, depth)
            if isinstance(tree, Internal):
                left = X[rows, tree.feature] <= tree.threshold
                yield from node_keys(tree.left, rows[left], depth + 1)
                yield from node_keys(tree.right, rows[~left], depth + 1)

        for X, y in [(builtin.features(), builtin.responses()), grid_data(5)]:
            roots = [np.asarray(r, np.intp) for r in self._roots(y.size)]
            rec, keys, root_ids = _grow_forests(X, y, roots, cfg)
            trees = [build_tree(X[rows], y[rows], cfg) for rows in roots]
            distinct = {k for rows, tree in zip(roots, trees)
                        for k in node_keys(tree, rows, 0)}
            # Fewer records than the trees have nodes: the trees share.
            assert rec.n.size == len(distinct) < sum(
                sum(count_nodes(tree)) for tree in trees)
            assert sorted(keys) == sorted({key(rows, 0) for rows in roots})
            # Each root's record is the distinct root of its key.
            assert [keys[i] for i in root_ids] == [key(rows, 0) for rows in roots]


def key_ids_loop(keys, buf, start, size, depth, cfg):
    """`_key_ids` node by node: the nodes by ascending size, stably, each
    taking its key's id in `keys`, or the next id when the key is new."""
    ids, new = np.empty(size.size, np.intp), np.zeros(size.size, bool)
    for i in np.argsort(size, kind="stable").tolist():
        rows = buf[start[i]:start[i] + size[i]]
        if cfg.max_depth:
            rows = np.append(rows, depth[i])
        key = rows.astype(np.intp).tobytes()
        new[i] = key not in keys
        ids[i] = keys.setdefault(key, len(keys))
    return ids, new


class TestKeyIds:
    @pytest.mark.parametrize("max_depth", [0, 2])
    def test_equals_the_loop_within_and_across_calls(self, max_depth):
        """Blocks of few row ids and depths, so keys repeat within a call
        and across calls; an empty call keys nothing."""
        gen = np.random.default_rng(max_depth)
        cfg = TreeConfig(max_depth=max_depth)
        buf = gen.integers(0, 3, 60).astype(np.intp)
        keys, loop_keys = {}, {}
        for _ in range(40):
            nodes = int(gen.integers(0, 30))
            size = gen.integers(1, 5, nodes).astype(np.intp)
            start = gen.integers(0, buf.size - 4, nodes).astype(np.intp)
            depth = gen.integers(0, 3, nodes).astype(np.int32)
            ids, new = _key_ids(keys, buf, start, size, depth, cfg)
            want_ids, want_new = key_ids_loop(loop_keys, buf, start, size,
                                              depth, cfg)
            assert ids.tolist() == want_ids.tolist()
            assert new.tolist() == want_new.tolist()
            assert list(keys.items()) == list(loop_keys.items())
        assert 0 < len(keys) < 40 * 15


class TestSettingCodes:
    def test_equal_codes_exactly_for_equal_rows(self):
        gen = np.random.default_rng(3)
        X = gen.integers(0, 3, (40, 3)).astype(np.float64)
        X[5] = [-0.0, 0.0, 0.0]  # equal as floats to any all-zero row
        X[6] = [0.0, 0.0, 0.0]
        codes = _setting_codes(X)
        same = (X[:, None] == X[None]).all(axis=2)
        assert np.array_equal(codes[:, None] == codes[None], same)

    def test_none_when_every_row_differs(self, builtin):
        assert _setting_codes(builtin.features()) is None
        assert _setting_codes(np.zeros((1, 3))) is None
        # With no repeated setting the grower tests the response alone.
        assert _padded(builtin.features(), builtin.responses())[1].shape == (1, 10)

    def test_the_pad_row_has_a_code_of_its_own(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        _, yc = _padded(X, np.array([5.0, 6.0, 7.0]))
        assert yc[0].tolist() == [5.0, 6.0, 7.0, 0.0]
        assert yc[1, 0] == yc[1, 1] != yc[1, 2]
        assert yc[1, 3] not in yc[1, :3]


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
            Xp, yc = _padded(X, y)
            feat, thr, dec, n_left, constant = _split(
                Xp, yc, buf, start, size, features, cfg)
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
                    assert constant[0, side, i] == (np.ptp(y[kid]) == 0.0)
                    # Setting codes, when two rows of X share a setting.
                    assert constant[1:, side, i].tolist() == [
                        bool((X[kid] == X[kid[0]]).all())] * (len(yc) - 1)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2])
    def test_non_finite_feature_rejected(self, builtin, bad, at):
        """A NaN went right at every split (58.3 on the builtin tree)."""
        x = [1.0, 1.0, 1.0]
        x[at] = bad
        with pytest.raises(ValueError, match=f"feature {at} must be finite"):
            predict_tree(fit_regression_tree(builtin), x)


class TestPreorder:
    def test_root_first_left_before_right_with_depths(self):
        a, b, c, d, e = (Leaf(value=float(v), n=1) for v in range(5))
        inner = Internal(0, 1.5, 1.0, 2, c, d)
        right = Internal(1, 2.5, 1.0, 3, inner, e)
        left = Internal(2, 0.5, 1.0, 2, a, b)
        root = Internal(0, 3.5, 1.0, 5, left, right)
        assert list(_preorder(root)) == [
            (root, 0), (left, 1), (a, 2), (b, 2), (right, 1), (inner, 2),
            (c, 3), (d, 3), (e, 2)]
        assert list(_preorder(a)) == [(a, 0)]

    def test_a_deep_chain_needs_no_recursion(self):
        """A chain deeper than the recursion limit: each split's right
        child is the next split."""
        t = Leaf(value=0.0, n=1)
        for i in range(3000):
            t = Internal(i % 3, float(i), 1.0, i + 2, Leaf(value=1.0, n=1), t)
        assert [depth for node, depth in _preorder(t)][-2:] == [3000, 3000]
        assert count_nodes(t) == (3000, 3001)


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
        out = export_tree(tree, "text", feature_names=builtin.FACTOR_NAMES)
        assert out.splitlines()[0].split(" <= ")[0] in builtin.FACTOR_NAMES

    @pytest.mark.parametrize("format", ["text", "graph"])
    @pytest.mark.parametrize("names", [["a"], []])
    def test_too_few_feature_names_rejected(self, builtin, format, names):
        """One name raised a bare IndexError (list index out of range); no
        names printed x0, x1, ... as if none were given."""
        tree = fit_regression_tree(builtin)
        with pytest.raises(ValueError, match=r"^the tree's arity is 3, but "
                           rf"feature_names has {len(names)}$"):
            export_tree(tree, format, feature_names=names)

    def test_feature_names_as_an_array(self, builtin):
        """An array of names raised "The truth value of an array ... is
        ambiguous"."""
        tree = fit_regression_tree(builtin)
        names = builtin.FACTOR_NAMES
        assert export_tree(tree, feature_names=np.array(names)) == export_tree(
            tree, feature_names=names)

    def test_graph_format(self, builtin):
        tree = fit_regression_tree(builtin, TreeConfig(max_depth=1))
        dot = export_tree(tree, "graph")
        assert dot.startswith("digraph tree {")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == 2

    def test_graph_labels_escaped(self):
        """A name with a quote wrote `label="rp"m <= 1100"`, which is not
        valid DOT; the text format writes names as they are."""
        tree = Internal(
            feature=1, threshold=1100.0, decrease=1.0, n=4,
            left=Leaf(value=1.0, n=2), right=Leaf(value=5.0, n=2),
        )
        names = ["x", 'rp"m\\', "z"]
        dot = export_tree(tree, "graph", feature_names=names)
        assert dot.splitlines()[1] == '  n0 [label="rp\\"m\\\\ <= 1100"];'
        text = export_tree(tree, "text", feature_names=names)
        assert text.splitlines()[0] == 'rp"m\\ <= 1100'

    def test_deterministic(self, builtin):
        a = export_tree(fit_regression_tree(builtin), "text")
        b = export_tree(fit_regression_tree(builtin), "text")
        assert a == b

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_tree(Leaf(value=1.0, n=1), "svg")
