import dataclasses
import itertools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weldlab.cart
import weldlab.dataset
import weldlab.ensemble
from weldlab._rng import GOLDEN_GAMMA, MASK64, SplitMix64, derive_seed
from weldlab.cart import (
    Internal,
    Leaf,
    TreeConfig,
    _build_trees,
    _route,
    _route_records,
    build_tree,
    count_nodes,
    predict_tree,
    tree_arity,
)
from weldlab.dataset import Dataset, bootstrap_indices, kfold_plan
from weldlab.ensemble import (
    BoostModel,
    CvResult,
    ForestModel,
    ModelSpec,
    _fit_and_validate,
    cross_validate,
    feature_importance,
    fit_gbm,
    fit_model,
    fit_random_forest,
    load_model,
    model_from_json,
    model_to_json,
    predict_ensemble,
    predict_ensemble_many,
    regression_metrics,
    save_model,
)

from conftest import lane_draws, make_dataset, rejecting_seed, subset_tree, unmix64

HARDNESS_RANGE = (58.3, 74.2)


@pytest.fixture
def scored_nodes(monkeypatch):
    """Nodes the split kernels score: one per `_best_split_loops` call (the
    recursion's per-node kernel) under "per_node", the real nodes of every
    `best_splits` call under "best_splits".  A call holds one node per row
    of `yb`, whether its nodes share one size or are padded to the largest
    (`sizes`)."""
    scored = Counter()
    node_kernel = weldlab.cart._best_split_loops
    batch_kernel = weldlab.cart.best_splits

    def one(*args):
        scored["per_node"] += 1
        return node_kernel(*args)

    def batch(Xb, yb, features, min_leaf, sizes):
        scored["best_splits"] += yb.shape[0]
        return batch_kernel(Xb, yb, features, min_leaf, sizes)

    monkeypatch.setattr(weldlab.cart, "_best_split_loops", one)
    monkeypatch.setattr(weldlab.cart, "best_splits", batch)
    return scored


def brute_boost_mse_track(d, rounds, max_depth, nu, lam):
    """Independent reimplementation of the residual recursion.

    Greedy stage trees are fit by direct enumeration (np.var scoring) and
    the additive update is applied literally; used as the oracle for the
    boosting trajectory.
    """
    X = d.features()
    y = d.responses()

    def best(Xs, ys):
        best_split = (None, None, np.inf)
        for j in range(Xs.shape[1]):
            vals = np.unique(Xs[:, j])
            for a, b in zip(vals[:-1], vals[1:]):
                thr = (a + b) / 2
                mask = Xs[:, j] <= thr
                score = np.var(ys[mask]) * mask.sum() + np.var(ys[~mask]) * (
                    len(ys) - mask.sum()
                )
                if score < best_split[2]:
                    best_split = (j, thr, score)
        return best_split

    def fit(Xs, ys, depth):
        if len(ys) < 2 or depth >= max_depth or ys.min() == ys.max():
            return ("leaf", ys.sum() / (len(ys) + lam), len(ys))
        j, thr, score = best(Xs, ys)
        if j is None or (np.var(ys) * len(ys) - score) <= 0:
            return ("leaf", ys.sum() / (len(ys) + lam), len(ys))
        mask = Xs[:, j] <= thr
        return ("node", j, thr, fit(Xs[mask], ys[mask], depth + 1),
                fit(Xs[~mask], ys[~mask], depth + 1))

    def pred(node, x):
        while node[0] != "leaf":
            node = node[3] if x[node[1]] <= node[2] else node[4]
        return node[1]

    current = np.full(len(y), y.mean())
    track = [float(np.mean((y - current) ** 2))]
    for _ in range(rounds):
        stage = fit(X, y - current, 0)
        current = current + nu * np.array([pred(stage, x) for x in X])
        track.append(float(np.mean((y - current) ** 2)))
    return track


class TestRandomForest:
    def test_single_tree_no_bootstrap_exact_fit(self, builtin):
        model = fit_random_forest(builtin, trees=1, m=3, bootstrap=False, seed=0)
        pred = predict_ensemble_many(model, builtin.features())
        assert np.array_equal(pred, builtin.responses())

    def test_deterministic_across_runs(self, builtin):
        a = fit_random_forest(builtin, trees=200, m=3, seed=7)
        b = fit_random_forest(builtin, trees=200, m=3, seed=7)
        X = builtin.features()
        assert np.array_equal(
            predict_ensemble_many(a, X), predict_ensemble_many(b, X)
        )

    def test_predictions_within_response_range(self, builtin):
        model = fit_random_forest(builtin, trees=200, m=3, seed=7)
        pred = predict_ensemble_many(model, builtin.features())
        assert pred.min() >= HARDNESS_RANGE[0]
        assert pred.max() <= HARDNESS_RANGE[1]

    def test_prediction_is_mean_of_trees(self, builtin):
        model = fit_random_forest(builtin, trees=13, m=3, seed=5)
        x = builtin.features()[4]
        per_tree = [predict_tree(t, x) for t in model.trees]
        assert predict_ensemble(model, x) == pytest.approx(
            sum(per_tree) / len(per_tree), abs=1e-12
        )

    def test_constant_single_leaf_forest(self):
        trees = tuple(Leaf(value=4.2, n=1) for _ in range(3))
        model = ForestModel(
            trees=trees, tree_seeds=(0, 1, 2), n_features=3, m=3,
            bootstrap=True, seed=0, config=TreeConfig(),
        )
        assert predict_ensemble(model, [1.0, 2.0, 3.0]) == pytest.approx(4.2)

    def test_seed_changes_model(self, builtin):
        a = fit_random_forest(builtin, trees=20, m=2, seed=1)
        b = fit_random_forest(builtin, trees=20, m=2, seed=2)
        X = builtin.features()
        assert not np.array_equal(
            predict_ensemble_many(a, X), predict_ensemble_many(b, X)
        )

    def test_bad_arguments(self, builtin):
        with pytest.raises(ValueError):
            fit_random_forest(builtin, trees=0)
        with pytest.raises(ValueError):
            fit_random_forest(builtin, trees=5, m=4)
        with pytest.raises(ValueError):
            fit_random_forest(builtin, trees=5, m=0)

    def test_variance_shrinks_with_tree_count(self, builtin):
        # bagging reduces across-seed prediction variance at every run
        X = builtin.features()
        seeds = range(32)
        pred_1 = np.array(
            [predict_ensemble_many(fit_random_forest(builtin, trees=1, seed=s), X)
             for s in seeds]
        )
        pred_50 = np.array(
            [predict_ensemble_many(fit_random_forest(builtin, trees=50, seed=s), X)
             for s in seeds]
        )
        var_1 = pred_1.var(axis=0)
        var_50 = pred_50.var(axis=0)
        assert np.all(var_50 <= var_1)

    def test_arity_mismatch_rejected(self, builtin):
        model = fit_random_forest(builtin, trees=2, seed=0)
        with pytest.raises(ValueError):
            predict_ensemble(model, [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["rf", "gbm"])
    def test_non_finite_feature_rejected(self, builtin, kind, bad):
        """A NaN went right at every split: a 5-tree forest predicted
        62.376 for (nan, 50, 0.2)."""
        model = (fit_random_forest(builtin, 5) if kind == "rf"
                 else fit_gbm(builtin, rounds=5))
        with pytest.raises(ValueError, match="feature 0 must be finite"):
            predict_ensemble(model, [bad, 50.0, 0.2])
        X = builtin.features()
        X[4, 2] = bad
        with pytest.raises(ValueError, match="feature 2 must be finite"):
            predict_ensemble_many(model, X)

    def test_prediction_permutation_invariant_in_tree_order(self, builtin):
        model = fit_random_forest(builtin, trees=17, m=2, seed=8)
        shuffled = model._replace(trees=tuple(reversed(model.trees)))
        x = builtin.features()[2]
        assert predict_ensemble(shuffled, x) == pytest.approx(
            predict_ensemble(model, x), abs=1e-12
        )


class TestTreeSeeds:
    """`_fit_models` derives every tree seed, and with m < p every lane
    seed, in ``uint64`` arithmetic that wraps mod 2^64, where `derive_seed`
    masks Python ints."""

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1] + [
        int(s) for s in np.random.default_rng(17).integers(
            0, 2**64 - 1, 4, dtype=np.uint64)])
    def test_tree_and_lane_seeds_equal_derive_seed(self, builtin, monkeypatch,
                                                   seed):
        lanes = []
        grow = weldlab.ensemble._grow_forests

        def recording(X, y, roots, cfg, lane_seeds=None, m=0):
            if lane_seeds is not None:
                lanes.append(lane_seeds.tolist())
            return grow(X, y, roots, cfg, lane_seeds, m)

        monkeypatch.setattr(weldlab.ensemble, "_grow_forests", recording)
        for trees in (1, 2, 200):
            want = tuple(derive_seed(seed, t) for t in range(trees))
            for m in (None, 1):
                model = fit_model(builtin, ModelSpec(kind="rf", trees=trees,
                                                     m=m, seed=seed))
                assert model.tree_seeds == want
                assert all(type(ts) is int for ts in model.tree_seeds)
            assert lanes.pop() == [derive_seed(ts, 1) for ts in want]
        assert lanes == []


class TestForestSharedSubtrees:
    @pytest.mark.parametrize("m", [3, 2])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("cfg", [TreeConfig(), TreeConfig(max_depth=2),
                                     TreeConfig(min_samples_leaf=2)])
    def test_equals_trees_grown_one_by_one(self, builtin, cfg, bootstrap, m):
        X, y = builtin.features(), builtin.responses()
        for seed in (0, 7):
            model = fit_random_forest(builtin, trees=40, cfg=cfg, m=m,
                                      seed=seed, bootstrap=bootstrap)
            for tree, ts in zip(model.trees, model.tree_seeds):
                rows = bootstrap_indices(9, ts) if bootstrap else list(range(9))
                rng = SplitMix64(derive_seed(ts, 1))
                assert tree == subset_tree(X[rows], y[rows], cfg, rng, m)

    def test_identical_trees_are_built_once(self, builtin, scored_nodes):
        single = fit_random_forest(builtin, trees=1, seed=3, bootstrap=False)
        per_tree = scored_nodes.total()
        model = fit_random_forest(builtin, trees=200, seed=3, bootstrap=False)
        assert per_tree > 0
        assert scored_nodes.total() == 2 * per_tree
        assert all(t is model.trees[0] for t in model.trees)
        assert model.trees[0] == single.trees[0]


    @pytest.mark.parametrize("k", [9, 3])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("min_decrease", [0.0, 0.5])
    @pytest.mark.parametrize("min_leaf", [1, 2])
    @pytest.mark.parametrize("max_depth", [0, 2])
    def test_level_wise_stage_equals_trees_grown_alone(
        self, builtin, monkeypatch, scored_nodes, max_depth, min_leaf,
        min_decrease, bootstrap, k,
    ):
        cfg = TreeConfig(max_depth=max_depth, min_samples_leaf=min_leaf,
                         min_impurity_decrease=min_decrease)
        spec = ModelSpec(kind="rf", config=cfg, trees=25,
                         bootstrap=bootstrap, seed=6)
        plan = kfold_plan(9, k, seed=2)
        final = fit_model(builtin, spec)
        folds = TestCrossValidate._fold_models(monkeypatch)
        cross_validate(builtin, spec, plan)
        # m == p: every node was scored in a batch, none one at a time
        assert scored_nodes["per_node"] == 0 < scored_nodes["best_splits"]
        X, y = builtin.features(), builtin.responses()
        stage = [(final, np.arange(9))] + [
            (model, np.flatnonzero(np.asarray(plan.assignments) != f))
            for f, model in enumerate(folds)
        ]
        assert len(stage) == k + 1
        for model, train in stage:
            for tree, ts in zip(model.trees, model.tree_seeds, strict=True):
                rows = train[bootstrap_indices(train.size, ts)] if bootstrap else train
                assert tree == build_tree(X[rows], y[rows], cfg)


def factorial_81(seed=0):
    """3^3 full factorial over the builtin levels, three replicates, with a
    seeded additive response plus noise rounded to 0.01."""
    rng = np.random.default_rng(seed)
    levels = ((800.0, 1000.0, 1200.0), (40.0, 50.0, 60.0), (0.1, 0.2, 0.3))
    effects = rng.uniform(-4.0, 4.0, (3, 3))
    rows = []
    for _ in range(3):
        for combo in itertools.product(range(3), repeat=3):
            y = 65.0 + sum(effects[f, lv] for f, lv in enumerate(combo))
            rows.append(tuple(levels[f][lv] for f, lv in enumerate(combo))
                        + (round(float(y + rng.normal()), 2),))
    return make_dataset(rows)


class TestLockstepGrowth:
    """Forests that search m < p features per split grow in lockstep
    (`cart._grow_forests` with lanes): every tree of the call must equal
    the reference preorder recursion `subset_tree` grown alone, draw for
    draw."""

    @staticmethod
    def _stage(d, spec, k, monkeypatch):
        """(model, training run ids) of the final fit and of every fold of
        one `_fit_and_validate` call with `k` folds, in that order."""
        folds = TestCrossValidate._fold_models(monkeypatch)
        final, cv, _ = _fit_and_validate(d, spec, k)
        assert len(folds) == k
        return [(final, np.arange(len(d)))] + [
            (model, np.flatnonzero(np.asarray(cv.plan.assignments) != f))
            for f, model in enumerate(folds)
        ]

    @staticmethod
    def _tree_rows(train, ts, bootstrap):
        return train[bootstrap_indices(train.size, ts)] if bootstrap else train

    @pytest.mark.parametrize("data", ["builtin", "factorial"])
    @pytest.mark.parametrize("min_decrease", [0.0, 0.5])
    @pytest.mark.parametrize("min_leaf", [1, 2])
    @pytest.mark.parametrize("max_depth", [0, 2])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("m", [1, 2])
    def test_every_tree_equals_the_recursion(
        self, builtin, monkeypatch, scored_nodes, data, m, bootstrap,
        max_depth, min_leaf, min_decrease,
    ):
        d = builtin if data == "builtin" else factorial_81()
        cfg = TreeConfig(max_depth=max_depth, min_samples_leaf=min_leaf,
                         min_impurity_decrease=min_decrease)
        spec = ModelSpec(kind="rf", config=cfg, trees=8, m=m,
                         bootstrap=bootstrap, seed=8)
        stage = self._stage(d, spec, 3, monkeypatch)
        # Every node was scored in a batch, none one at a time.
        assert scored_nodes["per_node"] == 0 < scored_nodes["best_splits"]
        X, y = d.features(), d.responses()
        for model, train in stage:
            for tree, ts in zip(model.trees, model.tree_seeds, strict=True):
                rows = self._tree_rows(train, ts, bootstrap)
                assert tree == subset_tree(
                    X[rows], y[rows], cfg, SplitMix64(derive_seed(ts, 1)), m)

    @pytest.mark.parametrize("data", ["builtin", "factorial"])
    def test_draws_per_forest_match_the_recursion(self, builtin, monkeypatch, data):
        """Each tree's lane ends where its rng ends when the tree grows
        alone: draws = (state - seed) * GOLDEN_GAMMA^-1 mod 2^64."""
        d = builtin if data == "builtin" else factorial_81()
        calls = []  # (lane seeds, the lanes the call advanced)
        grow = weldlab.ensemble._grow_forests

        def recording(X, y, roots, cfg, lanes, m):
            calls.append((lanes.copy(), lanes))
            return grow(X, y, roots, cfg, lanes, m)

        monkeypatch.setattr(weldlab.ensemble, "_grow_forests", recording)
        cfg = TreeConfig(min_samples_leaf=2)
        spec = ModelSpec(kind="rf", config=cfg, trees=10, m=2, seed=4)
        stage = self._stage(d, spec, 3, monkeypatch)
        # One call for the final forest and all the folds' forests.
        assert [seeds.size for seeds, _ in calls] == [4 * spec.trees]
        seeds = np.concatenate([seeds for seeds, _ in calls]).tolist()
        ends = np.concatenate([lanes for _, lanes in calls]).tolist()
        lockstep = list(map(lane_draws, seeds, ends))
        X, y = d.features(), d.responses()
        alone = []
        for model, train in stage:
            for ts in model.tree_seeds:
                rows = self._tree_rows(train, ts, True)
                rng = SplitMix64(derive_seed(ts, 1))
                subset_tree(X[rows], y[rows], cfg, rng, 2)
                alone.append(lane_draws(derive_seed(ts, 1), rng._state))
        assert seeds == [derive_seed(ts, 1) for model, _ in stage
                         for ts in model.tree_seeds]
        assert lockstep == alone
        # More than one subset of m = 2 draws per tree.
        assert sum(lockstep) > 2 * len(lockstep)

    def test_no_per_node_draws_or_leaves(self, monkeypatch):
        """Subsets come from lanes a round at a time: no per-node rng
        call."""

        def refuse(*args):
            raise AssertionError("a per-node call in the lockstep path")

        monkeypatch.setattr(SplitMix64, "next_below", refuse)
        model = fit_model(factorial_81(), ModelSpec(kind="rf", trees=20, m=2, seed=3))
        # Every root split: the fit grew nodes below them.
        assert not any(isinstance(t, Leaf) for t in model.trees)

    @pytest.mark.parametrize("data, cap", [("factorial", None), ("builtin", 20)])
    def test_size_groups_larger_than_the_row_cap(
        self, builtin, monkeypatch, scored_nodes, batch_calls, data, cap,
    ):
        """Each round's waiting nodes, sorted by falling size, fill calls of
        at most the row cap, counting pads: B nodes x the largest size."""
        d = builtin if data == "builtin" else factorial_81()
        if cap is not None:
            monkeypatch.setattr(weldlab.cart, "_CALL_ROWS", cap)
        cap = weldlab.cart._CALL_ROWS
        calls = batch_calls
        spec = ModelSpec(kind="rf", trees=50, m=2, seed=2)
        model = fit_model(d, spec)
        assert all(len(sizes) * width <= cap for sizes, width in calls)
        assert all(width == max(sizes) and min(sizes) >= 1 for sizes, width in calls)
        # All 50 bootstrapped roots need a split; they exceed one call.
        roots = [sizes.count(len(d)) for sizes, _ in calls]
        assert sum(roots) == 50 and sum(map(bool, roots)) > 1 and 50 * len(d) > cap
        # Nodes of different sizes share calls.
        assert any(len(set(sizes)) > 1 for sizes, _ in calls)
        assert scored_nodes["per_node"] == 0
        X, y = d.features(), d.responses()
        x_constant = Counter()
        for tree, ts in zip(model.trees, model.tree_seeds, strict=True):
            rows = bootstrap_indices(len(d), ts)
            assert tree == subset_tree(X[rows], y[rows], spec.config,
                                       SplitMix64(derive_seed(ts, 1)), 2,
                                       x_constant)
        # The calls held one real node per node the recursion scores, but
        # for the nodes whose runs all share one setting: only replicates
        # of a setting can have different responses there.
        assert (x_constant["nodes"] > 0) == (data == "factorial")
        assert scored_nodes["best_splits"] == (scored_nodes["per_node"]
                                               - x_constant["nodes"])

    def test_calls_per_fit_are_few(self, batch_calls):
        """One 50-tree m=2 fit on the 81-run design takes one call per
        round, plus a few for rounds over the row cap: about 60 calls for
        ~1,750 nodes, where one call per node size took ~400."""
        calls = batch_calls
        fit_model(factorial_81(), ModelSpec(kind="rf", trees=50, m=2, seed=2))
        assert sum(len(sizes) for sizes, _ in calls) > 1000
        assert len(calls) <= 100


class TestSettledNodes:
    """A node whose runs all share one factor setting, but whose responses
    differ, has no admissible split: every cut ties.  The forest grower
    settles it as a leaf without scoring it."""

    @pytest.mark.parametrize("m", [2, 3])  # lanes, keyed
    def test_no_kernel_call_holds_one_setting(self, monkeypatch, m):
        scored = []
        batch_kernel = weldlab.cart.best_splits

        def recording(Xb, yb, features, min_leaf, sizes):
            scored.extend(bool((Xb[b, :s] == Xb[b, 0]).all())
                          for b, s in enumerate(sizes.tolist()))
            return batch_kernel(Xb, yb, features, min_leaf, sizes)

        monkeypatch.setattr(weldlab.cart, "best_splits", recording)
        _fit_and_validate(factorial_81(), ModelSpec(kind="rf", trees=30, m=m,
                                                    seed=2), 3)
        assert len(scored) > 1000 and not any(scored)

    @pytest.mark.parametrize("cfg", [TreeConfig(), TreeConfig(max_depth=4),
                                     TreeConfig(min_samples_leaf=2)])
    def test_every_feature_trees_equal_trees_grown_alone(self, cfg):
        d = factorial_81()
        X, y = d.features(), d.responses()
        model = fit_random_forest(d, trees=25, cfg=cfg, seed=5)
        for tree, ts in zip(model.trees, model.tree_seeds, strict=True):
            rows = bootstrap_indices(len(d), ts)
            assert tree == build_tree(X[rows], y[rows], cfg)


class TestGbm:
    def test_constant_response_all_zero_stages(self, constant_dataset):
        model = fit_gbm(constant_dataset, rounds=5, nu=1.0)
        assert model.f0 == 65.0
        for stage in model.stages:
            assert isinstance(stage, Leaf)
            assert stage.value == pytest.approx(0.0, abs=1e-12)
        assert predict_ensemble(model, [1000.0, 50.0, 0.2]) == pytest.approx(65.0)

    def test_builtin_reaches_zero_mse(self, builtin):
        model = fit_gbm(builtin, rounds=20, cfg=TreeConfig(max_depth=3), nu=1.0)
        assert min(model.train_mse) <= 1e-9

    def test_matches_brute_force_recursion(self, builtin):
        model = fit_gbm(builtin, rounds=10, cfg=TreeConfig(max_depth=3), nu=0.5)
        oracle = brute_boost_mse_track(builtin, 10, 3, 0.5, 0.0)
        assert model.train_mse == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.1, 0.3, 1.0])
    def test_training_mse_non_increasing(self, builtin, nu):
        model = fit_gbm(builtin, rounds=50, cfg=TreeConfig(max_depth=3), nu=nu)
        track = model.train_mse
        assert len(track) == 51
        for earlier, later in zip(track, track[1:]):
            assert later <= earlier + 1e-12

    @pytest.mark.parametrize("lam", [1.0, 5.0])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_lambda_shrinks_leaves(self, builtin, lam, depth):
        """XGBoost's squared-loss objective under the L2 penalty lam: stage
        k, grown on the residuals r = y - F_{k-1}, values a leaf of the rows
        S sum(r_S) / (|S| + lam), bit for bit, and splits a node on the
        largest gain G(left) + G(right) - G(node), where G(S) = sum(r_S)^2 /
        (|S| + lam), over every feature and midpoint, as brute force finds
        it; its `decrease` is that gain over its row count.  A node below
        the depth limit whose best gain is <= 0 is a leaf."""
        cfg = TreeConfig(max_depth=depth)
        model = fit_gbm(builtin, rounds=3, cfg=cfg, nu=0.5, lam=lam)
        X, y = builtin.features(), builtin.responses()

        def gains(r, rows):
            """(gain, feature, threshold) of every split of the rows `rows`."""
            def G(s):
                return r[s].sum() ** 2 / (s.size + lam)
            out = []
            for f in range(X.shape[1]):
                values = np.unique(X[rows, f])
                for t in ((values[:-1] + values[1:]) / 2).tolist():
                    left = X[rows, f] <= t
                    out.append((G(rows[left]) + G(rows[~left]) - G(rows), f, t))
            return out

        def check(node, r, rows, level):
            assert node.n == rows.size
            best = max((g for g, _, _ in gains(r, rows)), default=-np.inf)
            if isinstance(node, Leaf):
                assert node.value == np.add.reduce(r[rows]) / (rows.size + lam)
                if level < depth or not depth:
                    assert best <= 1e-9
                return
            (gain,) = [g for g, f, t in gains(r, rows)
                       if (f, t) == (node.feature, node.threshold)]
            assert gain == pytest.approx(best, rel=1e-9, abs=1e-9)
            assert node.decrease * rows.size == pytest.approx(gain, rel=1e-9)
            left = X[rows, node.feature] <= node.threshold
            check(node.left, r, rows[left], level + 1)
            check(node.right, r, rows[~left], level + 1)

        current = np.full_like(y, model.f0)  # F_0, then F_1, F_2
        for stage in model.stages:
            check(stage, y - current, np.arange(y.size), 0)
            current = current + model.nu * np.asarray(
                [predict_tree(stage, row) for row in X])
        assert len(model.stages) == 3 and isinstance(model.stages[1], Internal)

    def test_mse_non_increasing_with_lambda(self, builtin):
        model = fit_gbm(
            builtin, rounds=30, cfg=TreeConfig(max_depth=3), nu=0.7, lam=2.0
        )
        for earlier, later in zip(model.train_mse, model.train_mse[1:]):
            assert later <= earlier + 1e-12

    def test_zero_rounds_predicts_mean(self, builtin):
        model = fit_gbm(builtin, rounds=0)
        assert model.f0 == pytest.approx(590.78 / 9)
        assert predict_ensemble(model, builtin.features()[0]) == pytest.approx(
            590.78 / 9
        )

    def test_predictions_within_response_range(self, builtin):
        for nu, lam in [(1.0, 0.0), (0.3, 0.0), (0.5, 3.0)]:
            model = fit_gbm(
                builtin, rounds=40, cfg=TreeConfig(max_depth=3), nu=nu, lam=lam
            )
            pred = predict_ensemble_many(model, builtin.features())
            assert pred.min() >= HARDNESS_RANGE[0] - 1e-9
            assert pred.max() <= HARDNESS_RANGE[1] + 1e-9

    def test_bad_arguments(self, builtin):
        with pytest.raises(ValueError):
            fit_gbm(builtin, rounds=-1)
        with pytest.raises(ValueError):
            fit_gbm(builtin, rounds=5, nu=0.0)
        with pytest.raises(ValueError):
            fit_gbm(builtin, rounds=5, nu=1.5)
        for lam in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                fit_gbm(builtin, rounds=5, lam=lam)


class TestFeatureImportance:
    def test_single_leaf_all_zero(self):
        imp = feature_importance(Leaf(value=1.0, n=5), n_features=3)
        assert imp.scores == (0.0, 0.0, 0.0)

    def test_depth_one_tree_single_feature(self, builtin):
        from weldlab.cart import fit_regression_tree

        tree = fit_regression_tree(builtin, TreeConfig(max_depth=1))
        imp = feature_importance(tree, n_features=3)
        assert imp.scores[tree.feature] == pytest.approx(1.0)
        assert sum(imp.scores) == pytest.approx(1.0, abs=1e-9)

    def test_builtin_single_tree_argmax_rpm(self, builtin):
        from weldlab.cart import fit_regression_tree

        tree = fit_regression_tree(builtin)
        imp = feature_importance(tree, n_features=3)
        assert imp.argmax == 0  # rpm

    def test_bare_tree_sized_by_its_arity(self, builtin):
        X, y = builtin.features(), builtin.responses()
        trees = [Leaf(value=1.0, n=5)] + [
            build_tree(X, y, TreeConfig(max_depth=d), rows=bootstrap_indices(9, s))
            for d in (1, 2, 0) for s in range(6)
        ]
        for tree in trees:
            assert feature_importance(tree) == feature_importance(
                tree, n_features=tree_arity(tree)
            )

    @pytest.mark.parametrize("n_features", [0, 1, 2])
    def test_too_few_features_for_a_tree_rejected(self, builtin, n_features):
        """n_features=1 raised a bare IndexError: index 1 is out of bounds."""
        tree = build_tree(builtin.features(), builtin.responses())
        with pytest.raises(ValueError, match=r"^the tree's arity is 3, but "
                           rf"n_features is {n_features}$"):
            feature_importance(tree, n_features=n_features)

    @pytest.mark.parametrize("n_features", [0, 1, 2, 4, 7])
    @pytest.mark.parametrize("kind", ["rf", "gbm"])
    def test_other_feature_count_for_an_ensemble_rejected(self, builtin, kind,
                                                          n_features):
        """It was ignored: a 5-tree forest gave its 3 scores for 1 and 7."""
        model = fit_model(builtin, ModelSpec(kind=kind, trees=5, rounds=5))
        with pytest.raises(ValueError, match=r"^the model has 3 features, "
                           rf"but n_features is {n_features}$"):
            feature_importance(model, n_features=n_features)
        assert feature_importance(model, n_features=3) == feature_importance(
            model)

    def test_builtin_forest_argmax_rpm(self, builtin):
        model = fit_random_forest(builtin, trees=200, m=3, seed=7)
        imp = feature_importance(model)
        assert imp.argmax == 0

    def test_normalized_or_zero(self, builtin):
        model = fit_random_forest(builtin, trees=25, m=2, seed=3)
        imp = feature_importance(model)
        assert sum(imp.scores) == pytest.approx(1.0, abs=1e-9)
        assert all(s >= 0 for s in imp.scores)

    def test_gbm_importance_normalized(self, builtin):
        model = fit_gbm(builtin, rounds=10, cfg=TreeConfig(max_depth=2), nu=0.5)
        imp = feature_importance(model)
        assert sum(imp.scores) == pytest.approx(1.0, abs=1e-9)

    def test_invariant_under_run_relabeling(self, builtin):
        shuffled = make_dataset(
            [(r.rpm, r.traverse, r.depth, r.hardness)
             for r in reversed(builtin.runs)]
        )
        a = feature_importance(
            fit_random_forest(builtin, trees=1, bootstrap=False, seed=0)
        )
        b = feature_importance(
            fit_random_forest(shuffled, trees=1, bootstrap=False, seed=0)
        )
        assert a.scores == pytest.approx(b.scores, abs=1e-9)


# The recursions that `tree_arity`, `count_nodes`, `export_tree`'s text
# format and `feature_importance` were, kept as references for the one
# preorder walk (`cart._preorder`) behind all four.


def arity_recursion(t):
    if isinstance(t, Leaf):
        return 0
    return max(t.feature + 1, arity_recursion(t.left), arity_recursion(t.right))


def count_recursion(t):
    if isinstance(t, Leaf):
        return 0, 1
    il, ll = count_recursion(t.left)
    ir, lr = count_recursion(t.right)
    return il + ir + 1, ll + lr


def text_recursion(t, names=None):
    lines = []

    def walk(node, indent):
        lines.append("  " * indent + weldlab.cart._node_label(node, names))
        if isinstance(node, Internal):
            walk(node.left, indent + 1)
            walk(node.right, indent + 1)

    walk(t, 0)
    return "\n".join(lines) + "\n"


def importance_recursion(trees, n_features):
    """Normalized scores of `trees`, accumulated in a numpy array."""
    acc = np.zeros(max(n_features, 1))

    def add(t, n_root):
        if isinstance(t, Internal):
            acc[t.feature] += (t.n / n_root) * t.decrease
            add(t.left, n_root)
            add(t.right, n_root)

    for t in trees:
        add(t, t.n)
    total = acc.sum()
    return acc / total if total > 0.0 else acc


def walk_case(name, builtin):
    """A model or a bare tree of each shape the report builds."""
    if name == "leaf":
        return Leaf(value=1.0, n=5)
    if name == "cart":
        return weldlab.cart.fit_regression_tree(builtin)
    if name == "cart-depth2":
        return weldlab.cart.fit_regression_tree(builtin, TreeConfig(max_depth=2))
    if name == "rf-default":
        return fit_model(builtin, ModelSpec(kind="rf"))
    if name == "rf-depth2":
        return fit_model(builtin, ModelSpec(
            kind="rf", config=TreeConfig(max_depth=2), trees=40, seed=5))
    if name in ("ff81-m3", "ff81-m2"):
        return fit_model(factorial_81(), ModelSpec(
            kind="rf", trees=50, m=int(name[-1])))
    if name == "gbm-lam1":
        return fit_gbm(builtin, rounds=20, lam=1.0, seed=2)
    assert name == "ff81-gbm-lam1-depth2"
    return fit_gbm(factorial_81(), rounds=20, cfg=TreeConfig(max_depth=2),
                   lam=1.0)


class TestOneTreeWalk:
    """Arity, node counts, text export and importance of every tree equal
    the recursions they replaced, byte for byte and bit for bit."""

    CASES = ["leaf", "cart", "cart-depth2", "rf-default", "rf-depth2",
             "ff81-m3", "ff81-m2", "gbm-lam1", "ff81-gbm-lam1-depth2"]

    @pytest.mark.parametrize("name", CASES)
    def test_walks_equal_the_recursions(self, builtin, name):
        model = walk_case(name, builtin)
        trees = (model.trees if isinstance(model, ForestModel)
                 else model.stages if isinstance(model, BoostModel)
                 else (model,))
        assert any(isinstance(t, Internal) for t in trees) == (name != "leaf")
        for t in trees:
            assert tree_arity(t) == arity_recursion(t)
            assert count_nodes(t) == count_recursion(t)
            assert weldlab.cart.export_tree(t) == text_recursion(t)
            assert weldlab.cart.export_tree(
                t, "text", Dataset.FACTOR_NAMES) == text_recursion(
                    t, Dataset.FACTOR_NAMES)
        n_features = (model.n_features if hasattr(model, "n_features")
                      else arity_recursion(model))
        got = feature_importance(model).scores
        assert [v.hex() for v in got] == [
            float(v).hex() for v in importance_recursion(trees, n_features)]


class TestRegressionMetrics:
    def test_perfect(self):
        m = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (m.mse, m.mae, m.r_sq) == (0.0, 0.0, 1.0)

    def test_mean_baseline_zero_r2(self):
        y = [1.0, 2.0, 3.0]
        m = regression_metrics(y, [2.0, 2.0, 2.0])
        assert m.r_sq == pytest.approx(0.0)

    def test_hand_arithmetic(self):
        m = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert m.mse == pytest.approx(1.0 / 3.0)
        assert m.mae == pytest.approx(1.0 / 3.0)
        assert m.r_sq == pytest.approx(0.5)

    def test_zero_variance_actuals(self):
        m = regression_metrics([2.0, 2.0], [1.0, 3.0])
        assert m.r_sq is None
        assert m.mse == pytest.approx(1.0)
        assert m.mae == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            regression_metrics([1.0, 2.0], [1.0])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            regression_metrics([1.0], [1.0])


class TestCrossValidate:
    def test_loo_mean_model_oracle(self, builtin):
        # boost with 0 rounds predicts the training mean: LOO prediction of
        # run i must equal the mean of the other 8 responses
        plan = kfold_plan(9, 9, seed=4)
        spec = ModelSpec(kind="gbm", rounds=0)
        result = cross_validate(builtin, spec, plan)
        y = builtin.responses()
        for i in range(9):
            others = np.delete(y, i)
            assert result.predictions[i] == pytest.approx(others.mean(), rel=1e-12)

    def test_pools_all_runs(self, builtin):
        plan = kfold_plan(9, 9, seed=0)
        result = cross_validate(builtin, ModelSpec(kind="gbm", rounds=0), plan)
        assert len(result.predictions) == 9
        assert all(m is None for m in result.fold_metrics)  # 1-run folds

    def test_deterministic(self, builtin):
        plan = kfold_plan(9, 3, seed=2)
        spec = ModelSpec(kind="rf", trees=30, m=2, seed=9)
        a = cross_validate(builtin, spec, plan)
        b = cross_validate(builtin, spec, plan)
        assert a.predictions == b.predictions
        assert a.pooled == b.pooled

    def test_kfold_fold_metrics_present(self, builtin):
        plan = kfold_plan(9, 3, seed=1)
        result = cross_validate(builtin, ModelSpec(kind="gbm", rounds=5), plan)
        assert all(m is not None for m in result.fold_metrics)

    def test_plan_coverage_checked(self, builtin):
        plan = kfold_plan(5, 2, seed=0)
        with pytest.raises(ValueError):
            cross_validate(builtin, ModelSpec(kind="gbm"), plan)

    def test_tiny_training_complement_rejected(self):
        d = make_dataset([(800, 40, 0.1, 5.0), (900, 50, 0.2, 6.0)])
        plan = kfold_plan(2, 2, seed=0)  # each fold leaves 1 training run
        with pytest.raises(ValueError, match="training"):
            cross_validate(d, ModelSpec(kind="gbm", rounds=0), plan)

    @staticmethod
    def _fold_models(monkeypatch):
        """Record each fold model of the fits that follow, in fold order.

        Boosted and m == p fold models are the distinct models that
        `predict_ensemble` predicts with.  An m < p fold forest predicts
        from the records of its fit's one `_grow_forests` pass with lanes;
        it is built from them by `cart._build_trees`, the builder of the
        models that `_fit_models` returns.
        """
        models = []
        grown = []
        predict = weldlab.ensemble.predict_ensemble
        grow = weldlab.ensemble._grow_forests
        fit_models = weldlab.ensemble._fit_models

        def predicting(model, x):
            if not any(model is seen for seen in models):
                models.append(model)
            return predict(model, x)

        def growing(X, y, roots, cfg, lanes=None, m=0):
            out = grow(X, y, roots, cfg, lanes, m)
            if lanes is not None:
                grown.append(out[0])
            return out

        def fitting(X, y, fits, spec, **kwargs):
            out = fit_models(X, y, fits, spec, **kwargs)
            if grown:
                (rec,) = grown
                grown.clear()
                T = spec.trees
                for i, (_, seed, held) in enumerate(fits):
                    if held is not None:
                        ids = np.flatnonzero((rec.tree >= i * T)
                                             & (rec.tree < (i + 1) * T))
                        trees = _build_trees(rec, ids)[i * T:(i + 1) * T]
                        models.append(ForestModel(
                            trees=tuple(trees),
                            tree_seeds=tuple(derive_seed(seed, t) for t in range(T)),
                            n_features=X.shape[1], m=spec.m,
                            bootstrap=spec.bootstrap, seed=seed,
                            config=spec.config,
                        ))
            return out

        monkeypatch.setattr(weldlab.ensemble, "predict_ensemble", predicting)
        monkeypatch.setattr(weldlab.ensemble, "_grow_forests", growing)
        monkeypatch.setattr(weldlab.ensemble, "_fit_models", fitting)
        return models

    @pytest.mark.parametrize("k", [9, 3])
    @pytest.mark.parametrize("kind, m, bootstrap", [
        ("rf", 3, True), ("rf", 3, False), ("rf", 2, True), ("rf", 2, False),
        ("gbm", None, True),  # boosting neither bootstraps nor draws features
    ])
    @pytest.mark.parametrize("max_depth", [0, 2])
    @pytest.mark.parametrize("min_leaf", [1, 2])
    def test_folds_equal_models_on_sub_datasets(
        self, builtin, monkeypatch, k, kind, m, bootstrap, max_depth, min_leaf
    ):
        cfg = TreeConfig(max_depth=max_depth, min_samples_leaf=min_leaf)
        spec = ModelSpec(kind=kind, config=cfg, trees=20, m=m,
                         bootstrap=bootstrap, rounds=8, nu=0.5, lam=1.0,
                         seed=5)
        plan = kfold_plan(9, k, seed=3)
        folds = self._fold_models(monkeypatch)
        cross_validate(builtin, spec, plan)
        assert len(folds) == k
        for f, model in enumerate(folds):
            sub = Dataset(runs=tuple(
                r for r, a in zip(builtin.runs, plan.assignments) if a != f
            ))
            if kind == "rf":
                expected = fit_random_forest(
                    sub, trees=20, cfg=cfg, m=m, seed=derive_seed(5, f),
                    bootstrap=bootstrap,
                )
                got_trees, want_trees = model.trees, expected.trees
            else:
                expected = fit_gbm(sub, rounds=8, cfg=cfg, nu=0.5, lam=1.0,
                                   seed=derive_seed(5, f))
                got_trees, want_trees = model.stages, expected.stages
            for got_tree, want_tree in zip(got_trees, want_trees, strict=True):
                assert got_tree == want_tree
            assert model == expected

    def test_folds_score_fewer_nodes_and_share_subtrees(
        self, builtin, monkeypatch, scored_nodes
    ):
        spec = ModelSpec(kind="rf", trees=50, seed=4)
        plan = kfold_plan(9, 9, seed=0)
        for f in range(plan.k):
            sub = Dataset(runs=tuple(
                r for r, a in zip(builtin.runs, plan.assignments) if a != f
            ))
            fit_random_forest(sub, trees=50, seed=derive_seed(4, f))
        alone = scored_nodes.total()
        scored_nodes.clear()
        folds = self._fold_models(monkeypatch)
        cross_validate(builtin, spec, plan)
        assert 0 < scored_nodes.total() < alone

        def subtrees(t):
            if not isinstance(t, Leaf):
                yield t
                yield from subtrees(t.left)
                yield from subtrees(t.right)

        assert len(folds) == 9
        fold_ids = [{id(n) for t in model.trees for n in subtrees(t)}
                    for model in folds]
        assert any(fold_ids[f] & fold_ids[g]
                   for f in range(9) for g in range(f + 1, 9))

    def test_fit_model_dispatch(self, builtin):
        rf = fit_model(builtin, ModelSpec(kind="rf", trees=3))
        gbm = fit_model(builtin, ModelSpec(kind="gbm", rounds=2))
        assert isinstance(rf, ForestModel)
        assert isinstance(gbm, BoostModel)
        with pytest.raises(ValueError):
            ModelSpec(kind="svm")


class TestOnePassStage:
    """`_fit_and_validate`: the final model and every fold from one
    `_fit_models` pass, equal to `fit_model` and `cross_validate` apart."""

    @pytest.mark.parametrize("data, k", [("builtin", 9), ("builtin", 3),
                                         ("factorial", 3)])
    @pytest.mark.parametrize("kind, m, bootstrap", [
        ("rf", 1, True), ("rf", 1, False), ("rf", 2, True), ("rf", 2, False),
        ("rf", 3, True), ("rf", 3, False), ("gbm", None, True),
    ])
    def test_equals_fit_model_and_cross_validate(self, builtin, data, k, kind,
                                                 m, bootstrap):
        d = builtin if data == "builtin" else factorial_81()
        spec = ModelSpec(kind=kind, config=TreeConfig(min_samples_leaf=2),
                         trees=12, m=m, bootstrap=bootstrap, rounds=6, seed=13)
        model, cv, _ = _fit_and_validate(d, spec, k)
        # Model equality compares every tree, node for node, and each
        # forest's tree seeds.
        assert model == fit_model(d, spec)
        assert cv == cross_validate(d, spec, kfold_plan(len(d), k, spec.seed))

    @pytest.mark.parametrize("data", ["builtin", "factorial"])
    @pytest.mark.parametrize("kind, m", [("rf", 1), ("rf", 2), ("rf", 3),
                                         ("gbm", None)])
    def test_training_predictions_equal_predict_ensemble(self, builtin,
                                                         monkeypatch, data,
                                                         kind, m):
        """The model's predictions of its own runs: a forest's routed
        through the records, a boosted model's by `predict_ensemble` walks,
        and equal bit for bit either way."""
        d = builtin if data == "builtin" else factorial_81()
        spec = ModelSpec(kind=kind, trees=15, m=m, rounds=6, seed=4)
        walks = Counter()
        predict = weldlab.ensemble.predict_ensemble

        def counting(model, x):
            walks[model.seed] += 1
            return predict(model, x)

        monkeypatch.setattr(weldlab.ensemble, "predict_ensemble", counting)
        model, _, predicted = _fit_and_validate(d, spec, 3)
        assert walks[spec.seed] == (0 if kind == "rf" else len(d))
        monkeypatch.undo()
        assert predicted == predict_ensemble_many(model, d.features()).tolist()

    @pytest.mark.parametrize("data", ["builtin", "factorial"])
    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_routed_folds_equal_predict_ensemble(self, builtin, monkeypatch,
                                                 data, bootstrap):
        """m < p fold forests predict through the records; the same
        forests built from those records predict each held-out run as
        `predict_ensemble` does, bit for bit."""
        d = builtin if data == "builtin" else factorial_81()
        spec = ModelSpec(kind="rf", trees=15, m=2, bootstrap=bootstrap, seed=3)
        folds = TestCrossValidate._fold_models(monkeypatch)
        cv = cross_validate(d, spec, kfold_plan(len(d), 3, seed=1))
        monkeypatch.undo()
        assert len(folds) == 3
        X = d.features()
        for f, model in enumerate(folds):
            for i in cv.plan.fold_indices(f):
                assert cv.predictions[i] == predict_ensemble(model, X[i])

    @pytest.mark.parametrize("k", [9, 3])
    def test_subset_stage_grows_once_and_builds_the_final_forest(
        self, builtin, monkeypatch, k,
    ):
        """With m < p: one `_grow_forests` call for every forest, `Leaf`
        and `Internal` objects for the final forest only, no per-fold
        `predict_ensemble`, and no scalar bootstrap for seeds without a
        rejected draw."""
        calls = Counter()
        built = []

        def counting(name):
            real = getattr(weldlab.ensemble, name)

            def wrapper(*args):
                calls[name] += 1
                if name == "_build_trees":
                    built.append(args)
                return real(*args)

            monkeypatch.setattr(weldlab.ensemble, name, wrapper)

        for name in ("_grow_forests", "_build_trees", "predict_ensemble",
                     "build_tree"):
            counting(name)
        monkeypatch.setattr(weldlab.ensemble, "bootstrap_indices", None)
        monkeypatch.setattr(weldlab.dataset, "bootstrap_indices", None)
        made = Counter()
        for cls in (Leaf, Internal):
            def make(*args, cls=cls, **kwargs):
                made[cls] += 1
                return cls(*args, **kwargs)

            monkeypatch.setattr(weldlab.cart, cls.__name__, make)
        spec = ModelSpec(kind="rf", trees=30, m=2, seed=21)
        model, _, _ = _fit_and_validate(builtin, spec, k)
        monkeypatch.undo()
        assert calls == {"_grow_forests": 1, "_build_trees": 1}
        # The records of the final forest's trees, 0 to trees - 1.
        ((rec, ids),) = built
        assert np.array_equal(ids, np.flatnonzero(rec.tree < spec.trees))
        splits, leaves = map(sum, zip(*map(count_nodes, model.trees)))
        assert made == {Internal: splits, Leaf: leaves}

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_every_feature_stage_grows_once(self, builtin, monkeypatch,
                                            bootstrap):
        """With m == p: one keyed `_grow_forests` call for every forest of
        `_fit_and_validate`, and one for every fold of `cross_validate`;
        no `build_tree` read-back grows again."""
        calls = Counter()
        for module in (weldlab.ensemble, weldlab.cart):
            def wrapper(X, y, roots, cfg, lanes=None, m=0,
                        real=module._grow_forests):
                calls["keyed" if lanes is None else "lanes"] += 1
                return real(X, y, roots, cfg, lanes, m)

            monkeypatch.setattr(module, "_grow_forests", wrapper)
        spec = ModelSpec(kind="rf", trees=30, bootstrap=bootstrap, seed=21)
        _fit_and_validate(builtin, spec, 9)
        assert calls == {"keyed": 1}
        calls.clear()
        cross_validate(builtin, spec, kfold_plan(9, 3, seed=1))
        assert calls == {"keyed": 1}

    def test_every_feature_stage_reads_its_trees_from_the_pass(
        self, builtin, monkeypatch,
    ):
        """A default rf stage (seed 0): its one `_grow_forests` pass keys
        one root per distinct root, 200 for the final forest and each of its
        9 folds, `_build_trees` builds every record, and every `build_tree`
        read-back finds its tree among the roots' trees, growing none."""
        passes, builds = [], []
        grow = weldlab.ensemble._grow_forests
        build = weldlab.ensemble._build_trees

        def recording(*args):
            passes.append(grow(*args))
            return passes[-1]

        def building(*args):
            builds.append(build(*args))
            return builds[-1]

        def refuse(*args, **kwargs):
            raise AssertionError("a read-back grew its tree")

        monkeypatch.setattr(weldlab.ensemble, "_grow_forests", recording)
        monkeypatch.setattr(weldlab.ensemble, "_build_trees", building)
        monkeypatch.setattr(weldlab.cart, "_grow", refuse)
        model, _, _ = _fit_and_validate(builtin, ModelSpec(kind="rf"), 9)
        ((rec, keys, _),) = passes
        (built,) = builds
        assert len(keys) == 2000
        assert len(built) == rec.n.size
        assert all(type(tree) in (Leaf, Internal) for tree in built)
        roots = {id(tree) for tree in built[:len(keys)]}
        assert all(id(tree) in roots for tree in model.trees)

    def test_every_feature_stage_routes_its_records(self, builtin,
                                                    monkeypatch):
        """The keyed records of a default rf stage (seed 0), a DAG, route
        every (row, root) pair to the leaf that `_route` reaches in the
        root's built tree."""
        passes = []
        grow = weldlab.ensemble._grow_forests

        def recording(X, y, roots, cfg, *args):
            passes.append((roots, grow(X, y, roots, cfg, *args)))
            return passes[-1][1]

        monkeypatch.setattr(weldlab.ensemble, "_grow_forests", recording)
        _fit_and_validate(builtin, ModelSpec(kind="rf"), 9)
        ((roots, (rec, keys, root_ids)),) = passes
        X = builtin.features()
        built = _build_trees(rec, np.arange(rec.n.size))
        record = {key: i for i, key in enumerate(keys)}
        nodes = [record[rows.tobytes()] for block in roots for rows in block]
        assert len(nodes) == 2000
        # The pass's record id of each root is its key's.
        assert root_ids.tolist() == nodes
        pairs = list(itertools.product(range(len(X)), nodes))
        rows, starts = map(np.array, zip(*pairs))
        assert _route_records(rec, X, rows, starts).tolist() == [
            _route(built[node], X[row].tolist()) for row, node in pairs]

    def test_every_feature_stage_peak_heap(self, builtin):
        """tracemalloc's peak over a default rf stage (200 trees, final
        forest and 9 leave-one-out folds, seed 0) after a warm-up call:
        2,195 KB on CPython 3.11 and numpy 2.4 with the stage grown in one
        pass (1,810 KB with one pass per forest; 2,411 KB since both round
        policies share one record store).  The bound is 2,195 KB plus 15%:
        a change that keeps more objects alive at once fails here."""
        spec = ModelSpec(kind="rf", seed=0)
        _fit_and_validate(builtin, spec, 9)
        tracemalloc.start()
        try:
            _fit_and_validate(builtin, spec, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= int(2195 * 1.15) * 1024

    def test_every_feature_stage_shares_one_memo(self, builtin, scored_nodes):
        """With m == p the final forest and its folds share one memo, so
        the stage scores fewer nodes than `fit_model` and `cross_validate`
        apart."""
        spec = ModelSpec(kind="rf", trees=200, seed=0)
        fit_model(builtin, spec)
        cross_validate(builtin, spec, kfold_plan(9, 9, seed=0))
        apart = scored_nodes.total()
        scored_nodes.clear()
        _fit_and_validate(builtin, spec, 9)
        assert 0 < scored_nodes.total() < apart

    def test_fold_plan_is_checked_before_any_tree_grows(self, builtin,
                                                        monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a tree grew before the fold plan")

        for name in ("_grow_forests", "build_tree"):
            monkeypatch.setattr(weldlab.ensemble, name, refuse)
        for m in (None, 2):
            with pytest.raises(ValueError, match=r"^fold count must satisfy "
                               r"2 <= k <= n, got k=10, n=9$"):
                _fit_and_validate(builtin, ModelSpec(kind="rf", m=m), 10)
        tiny = make_dataset([(800, 40, 0.1, 5.0), (900, 50, 0.2, 6.0)])
        with pytest.raises(ValueError, match="training"):
            _fit_and_validate(tiny, ModelSpec(kind="gbm"), 2)


# --- an independent oracle for the model stage ----------------------------
# Every tree grown alone by the plain recursions, every bootstrap drawn one
# `next_below` at a time, every fold refitted on its own runs, and every
# prediction walked tree by tree: none of the model stage's shortcuts.


def naive_route(t, x):
    while isinstance(t, Internal):
        t = t.left if x[t.feature] <= t.threshold else t.right
    return t.value


def naive_predict(model, x):
    """A forest's mean over its trees in index order, or F_0 plus nu times
    the stages' sum, each sum one value at a time."""
    total = 0
    for t in model.trees if isinstance(model, ForestModel) else model.stages:
        total += naive_route(t, x)
    if isinstance(model, ForestModel):
        return total / len(model.trees)
    return model.f0 + model.nu * total


def naive_fit(X, y, spec, seed):
    """The `spec` model of (X, y) with `seed`, one tree at a time."""
    (n, p), cfg = X.shape, spec.config
    Xl = X.tolist()
    if spec.kind == "gbm":
        f0 = float(y.mean())
        current = np.full_like(y, f0)
        mse, stages = [float(np.mean((y - current) ** 2))], []
        for _ in range(spec.rounds):
            stages.append(weldlab.cart._grow(
                Xl, (y - current).tolist(), list(range(n)), 0, cfg, lam=spec.lam))
            current = current + spec.nu * np.array(
                [naive_route(stages[-1], x) for x in Xl])
            mse.append(float(np.mean((y - current) ** 2)))
        return BoostModel(f0, tuple(stages), spec.nu, spec.lam, p, seed, cfg,
                          tuple(mse))
    m = p if spec.m is None else spec.m
    tree_seeds = tuple(derive_seed(seed, t) for t in range(spec.trees))
    trees = []
    for ts in tree_seeds:
        rows = list(range(n))
        if spec.bootstrap:
            rng = SplitMix64(ts)
            rows = [rng.next_below(n) for _ in rows]
        trees.append(
            subset_tree(X[rows], y[rows], cfg, SplitMix64(derive_seed(ts, 1)), m)
            if m < p else weldlab.cart._grow(Xl, y.tolist(), rows, 0, cfg))
    return ForestModel(tuple(trees), tree_seeds, p, m, spec.bootstrap, seed, cfg)


def naive_stage(d, spec, k):
    """`_fit_and_validate(d, spec, k)` from `naive_fit` and `naive_predict`."""
    X, y = d.features(), d.responses()
    plan = kfold_plan(len(d), k, spec.seed)
    final = naive_fit(X, y, spec, spec.seed)
    predictions = np.empty(len(d))
    fold_metrics = []
    for f in range(k):
        train = [i for i, g in enumerate(plan.assignments) if g != f]
        held = list(plan.fold_indices(f))
        model = naive_fit(X[train], y[train], spec, derive_seed(spec.seed, f))
        predictions[held] = [naive_predict(model, X[i]) for i in held]
        fold_metrics.append(regression_metrics(y[held], predictions[held])
                            if len(held) >= 2 else None)
    cv = CvResult(plan, tuple(fold_metrics), regression_metrics(y, predictions),
                  tuple(predictions.tolist()))
    return final, cv, [naive_predict(final, x) for x in X.tolist()]


def seed_deriving(target, *streams):
    """The seed s with ``derive_seed(s, *streams) == target``."""
    for stream in reversed(streams):
        target = (unmix64(target) - (stream + 1) * GOLDEN_GAMMA) & MASK64
    return target


def assert_stage_equals_the_oracle(d, spec, k):
    n = len(d)
    if n - -(-n // k) < 2:  # the largest fold leaves < 2 training runs
        with pytest.raises(ValueError, match="training runs"):
            _fit_and_validate(d, spec, k)
        return
    assert _fit_and_validate(d, spec, k) == naive_stage(d, spec, k)


LEVELS = (0.1, 0.25, 1.0, 40.0, 55.5, 800.0)
RESPONSES = (55.0, 60.5, 61.25, 64.3, 70.0, 74.2)


@st.composite
def stage_cases(draw):
    """A design, a model spec and a fold count for the model stage.

    Hypothesis draws the kind of case; the numbers come from a numpy
    generator that it seeds, which spreads them more evenly."""
    design = draw(st.sampled_from(["any", "one setting", "constant response"]))
    kind = draw(st.sampled_from(["rf", "gbm"]))
    m, bootstrap = draw(st.sampled_from(
        [(m, b) for m in (None, 1, 2, 3) for b in (True, False)]))
    # Some seeds make a tree's bootstrap or subset stream reject a draw.
    rare = draw(st.sampled_from(["none", "bootstrap", "fold bootstrap", "subsets"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 31))
    # Each factor's 1-4 levels; the runs cycle through a few settings drawn
    # from them, so settings repeat, and the responses repeat values.
    levels = [rng.choice(LEVELS, rng.integers(1, 5), replace=False) for _ in range(3)]
    settings = [tuple(rng.choice(lv) for lv in levels) for _ in range(
        1 if design == "one setting" else rng.integers(2, n // 2 + 2))]
    responses = rng.choice(RESPONSES, 1 if design == "constant response" else n)
    d = make_dataset([settings[i % len(settings)] + (responses[i % len(responses)],)
                      for i in range(n)])
    cfg = TreeConfig(max_depth=int(rng.choice([0, 0, 1, 2, 3])),
                     min_samples_leaf=int(rng.choice([1, 1, 2, 3])),
                     min_impurity_decrease=float(rng.choice([0.0, 0.0, 0.5, 4.0])))
    # A fold count whose every fold leaves >= 2 training runs, or 2 (n = 2).
    k = int(rng.choice([k for k in range(2, min(n, 5) + 1)
                        if n - -(-n // k) >= 2] or [2]))
    trees = int(rng.integers(1, 5))
    # Tree t of the final forest, or of fold f, rejects its draw j.
    t, f, j = int(rng.integers(trees)), int(rng.integers(k)), int(rng.integers(1, n + 1))
    seed = (int(rng.integers(2**64, dtype=np.uint64)) if rare == "none"
            else seed_deriving(rejecting_seed(j), t) if rare == "bootstrap"
            else seed_deriving(rejecting_seed(j), f, t) if rare == "fold bootstrap"
            else seed_deriving(rejecting_seed(j), t, 1))
    return d, ModelSpec(kind=kind, config=cfg, trees=trees, m=m, bootstrap=bootstrap,
                        rounds=int(rng.integers(0, 5)), nu=float(rng.choice([0.3, 1.0])),
                        lam=float(rng.choice([0.0, 1.0])), seed=seed), k


class TestModelStageOracle:
    """`_fit_and_validate` equals the naive reference exactly: models,
    predictions and CV results."""

    @given(stage_cases())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_equals_the_naive_reference(self, case):
        assert_stage_equals_the_oracle(*case)

    @pytest.mark.parametrize("m", [None, 2])
    @pytest.mark.parametrize("streams", [(0,), (1, 3)])
    def test_rejected_bootstrap_draws(self, builtin, m, streams):
        """Tree 0 of the final forest, or tree 3 of fold 1, draws 2^64 - 1
        third, which `next_below(9)` rejects."""
        spec = ModelSpec(kind="rf", trees=5, m=m, seed=seed_deriving(
            rejecting_seed(3), *streams))
        rng = SplitMix64(derive_seed(spec.seed, *streams))
        assert [rng.next_u64() for _ in range(3)][2] == MASK64
        assert_stage_equals_the_oracle(builtin, spec, 3)

    @pytest.mark.parametrize("m", [1, 2])
    def test_replicated_factorial(self, m):
        """A 2^3 factorial run twice: nodes whose runs share one setting
        are settled, and their trees still draw their subsets."""
        rows = [levels + (RESPONSES[i * 5 % 6],) for i, levels in enumerate(
            list(itertools.product((800.0, 1200.0), (40.0, 60.0), (0.1, 0.3))) * 2)]
        spec = ModelSpec(kind="rf", trees=4, m=m, seed=2)
        assert_stage_equals_the_oracle(make_dataset(rows), spec, 3)

    @pytest.mark.parametrize("kind, m", [("rf", None), ("rf", 2), ("gbm", None)])
    def test_runs_of_one_setting(self, kind, m):
        """Every node of a design whose runs share one setting is a leaf."""
        d = make_dataset([(1000.0, 50.0, 0.2, v) for v in RESPONSES])
        spec = ModelSpec(kind=kind, trees=4, m=m, rounds=3, seed=6)
        assert_stage_equals_the_oracle(d, spec, 3)
        model = fit_model(d, spec)
        assert all(isinstance(t, Leaf) for t in getattr(
            model, "trees", getattr(model, "stages", ())))


class TestModelSpec:
    def test_library_entry_points_check_their_settings(self, builtin):
        with pytest.raises(ValueError, match="^trees must be an integer"):
            fit_random_forest(builtin, trees=2.5)
        with pytest.raises(ValueError, match="^nu must be a real number"):
            fit_gbm(builtin, rounds=3, nu=True)
        with pytest.raises(ValueError, match="^trees must be >= 1"):
            ModelSpec(kind="rf", trees=0)
        with pytest.raises(ValueError, match="^bootstrap must be a bool"):
            fit_random_forest(builtin, trees=2, bootstrap="no")

    @pytest.mark.parametrize("bad", [
        {"trees": 0}, {"trees": 2.5}, {"trees": True}, {"rounds": -1},
        {"rounds": 1.5}, {"m": 0}, {"m": np.bool_(True)}, {"m": 2.0},
        {"nu": 0.0}, {"nu": 1.5}, {"nu": float("nan")}, {"nu": True},
        {"nu": "0.3"}, {"lam": -1.0}, {"lam": float("nan")}, {"lam": False},
        {"lam": float("inf")}, {"lam": 10**400},
        {"seed": -1}, {"seed": 2**64}, {"seed": 1.0}, {"bootstrap": "no"},
        {"bootstrap": 1}, {"bootstrap": None},
    ])
    @pytest.mark.parametrize("kind", ["rf", "gbm"])
    def test_bad_setting_names_its_field(self, kind, bad):
        (field,) = bad
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ModelSpec(kind=kind, **bad)

    def test_numpy_settings_accepted_and_counts_become_ints(self):
        spec = ModelSpec(kind="gbm", trees=np.int64(3), rounds=np.uint8(2),
                         m=np.int32(2), nu=np.float64(0.5), lam=np.int16(1),
                         seed=np.uint64(2**64 - 1), bootstrap=np.bool_(False))
        assert spec == ModelSpec(kind="gbm", trees=3, rounds=2, m=2, nu=0.5,
                                 lam=1, seed=2**64 - 1, bootstrap=False)
        for name in ("trees", "rounds", "m", "seed"):
            assert type(getattr(spec, name)) is int
        assert type(spec.bootstrap) is bool


class TestSerialization:
    def test_forest_roundtrip_identical_predictions(self, builtin, tmp_path):
        model = fit_random_forest(builtin, trees=40, m=2, seed=13)
        path = tmp_path / "forest.json"
        save_model(model, path)
        loaded = load_model(path)
        X = builtin.features()
        assert np.array_equal(
            predict_ensemble_many(model, X), predict_ensemble_many(loaded, X)
        )
        assert loaded.tree_seeds == model.tree_seeds
        assert loaded == model

    def test_gbm_roundtrip_identical_predictions(self, builtin, tmp_path):
        model = fit_gbm(builtin, rounds=15, cfg=TreeConfig(max_depth=3), nu=0.3)
        path = tmp_path / "gbm.json"
        save_model(model, path)
        loaded = load_model(path)
        X = builtin.features()
        assert np.array_equal(predict_ensemble_many(model, X),
                              predict_ensemble_many(loaded, X))
        assert loaded == model

    def test_non_model_rejected_with_its_type(self):
        with pytest.raises(TypeError, match="cannot serialize Leaf"):
            model_to_json(Leaf(1.0, 1))

    def test_json_stable(self, builtin):
        model = fit_random_forest(builtin, trees=5, seed=3)
        assert model_to_json(model) == model_to_json(model)

    @pytest.mark.parametrize("feature", [-1, 3, 7])
    def test_split_feature_out_of_range_rejected(self, builtin, feature):
        doc = json.loads(model_to_json(fit_random_forest(builtin, trees=2, seed=1)))
        doc["trees"][1]["split"]["feature"] = feature
        with pytest.raises(ValueError, match="outside"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("value, plain", [(np.float32(0.5), 0.5),
                                              (np.int64(1), 1)])
    def test_numpy_min_impurity_decrease_written_as_a_python_number(
        self, builtin, value, plain
    ):
        def doc(v):
            cfg = TreeConfig(min_impurity_decrease=v)
            return model_to_json(fit_random_forest(builtin, trees=3, cfg=cfg))

        assert doc(value) == doc(plain)

    @staticmethod
    def _drop(obj, key):
        del obj[key]

    @pytest.mark.parametrize("kind, edit, match", [
        ("rf", lambda doc: doc.update(trees=[], tree_seeds=[]), "at least one tree"),
        ("rf", lambda doc: doc["tree_seeds"].pop(), "tree_seeds has 1 entries for 2"),
        ("rf", lambda doc: doc.update(trees={}), "trees must be a JSON array"),
        ("gbm", lambda doc: doc["train_mse"].pop(), "train_mse has 3 entries"),
        ("gbm", lambda doc: doc["train_mse"].append(0.5), "train_mse has 5 entries"),
        ("rf", lambda doc: TestSerialization._drop(doc, "n_features"),
         "the model lacks 'n_features'"),
        ("rf", lambda doc: TestSerialization._drop(doc, "tree_seeds"),
         "the model lacks 'tree_seeds'"),
        ("gbm", lambda doc: TestSerialization._drop(doc["config"], "max_depth"),
         "config lacks 'max_depth'"),
        ("gbm", lambda doc: doc.update(trees=[{"leaf": {"value": 1.0}}] * 3),
         "a leaf lacks 'n'"),
        ("gbm", lambda doc: doc.update(trees=[[]] * 3), "a tree node must be"),
        # the split was silently dropped
        ("rf", lambda doc: doc["trees"].__setitem__(
            0, {"leaf": {"value": 1.0, "n": 1}, "split": 3}),
         "exactly one of 'leaf' and 'split'"),
        ("rf", lambda doc: doc["trees"].__setitem__(0, {}),
         "exactly one of 'leaf' and 'split'"),
        ("rf", lambda doc: doc.update(m=99), r"m must be in \[1, 3\], got 99"),
        ("rf", lambda doc: doc.update(m=None), r"m must be in \[1, 3\], got None"),
        ("rf", lambda doc: doc.update(bootstrap="no"), "bootstrap must be a bool"),
        ("rf", lambda doc: doc.update(tree_seeds=["x", "y"]),
         "tree seed must be an integer, got 'x'"),
        ("rf", lambda doc: doc["tree_seeds"].__setitem__(1, -1),
         "tree seed -1 is outside"),
        ("rf", lambda doc: doc["tree_seeds"].__setitem__(1, 2**64),
         f"tree seed {2**64} is outside"),
        ("gbm", lambda doc: doc.update(trees=[{"leaf": {"value": 1.0, "n": None}}] * 3),
         "leaf n must be an integer, got None"),
        ("gbm", lambda doc: doc.update(trees=[{"leaf": {"value": 1.0, "n": 0}}] * 3),
         "leaf n 0 is outside"),
        ("rf", lambda doc: doc["trees"][1]["split"].update(n=8.5),
         "split n must be an integer, got 8.5"),
        ("gbm", lambda doc: doc.update(trees=[{"leaf": {"value": None, "n": 1}}] * 3),
         "leaf value must be a real number, got None"),
        ("gbm", lambda doc: doc.update(nu="0.3"), "nu must be a real number"),
        ("gbm", lambda doc: doc.update(lam=float("inf")), "lam must be finite"),
        ("rf", lambda doc: doc["trees"][1]["split"].update(threshold=float("nan")),
         "split threshold must be finite, got nan"),
        ("rf", lambda doc: doc["trees"][1]["split"].update(decrease=float("inf")),
         "split decrease must be finite, got inf"),
        ("rf", lambda doc: doc["trees"][1]["split"].update(threshold=10**400),
         "split threshold must be finite, got 1000"),
        ("gbm", lambda doc: doc.update(trees=[{"leaf": {"value": -float("inf"), "n": 1}}] * 3),
         "leaf value must be finite, got -inf"),
        ("gbm", lambda doc: doc.update(f0=float("nan")), "f0 must be finite, got nan"),
        ("gbm", lambda doc: doc["train_mse"].__setitem__(0, float("inf")),
         "train_mse entry must be finite, got inf"),
        ("rf", lambda doc: doc["config"].update(min_impurity_decrease=float("inf")),
         "min_impurity_decrease must be finite"),
    ])
    def test_malformed_document_rejected(self, builtin, kind, edit, match):
        """A model file is outside input: each flaw must raise a ValueError
        that names it, not load or fail later with another error."""
        if kind == "rf":
            model = fit_random_forest(builtin, trees=2, seed=1)
        else:
            model = fit_gbm(builtin, rounds=3)
        doc = json.loads(model_to_json(model))
        edit(doc)
        with pytest.raises(ValueError, match=match):
            model_from_json(json.dumps(doc))

    @staticmethod
    def _document(builtin, kind) -> dict:
        model = (fit_random_forest(builtin, trees=2, seed=1) if kind == "rf"
                 else fit_gbm(builtin, rounds=3))
        return json.loads(model_to_json(model))

    @pytest.mark.parametrize("kind, name", [
        ("rf", "kind"),
        *(("rf", name) for name in ForestModel._fields),
        # a boosted model's stages are saved under "trees"
        *(("gbm", "trees" if name == "stages" else name)
          for name in BoostModel._fields),
    ])
    def test_each_missing_model_field_named(self, builtin, kind, name):
        doc = self._document(builtin, kind)
        del doc[name]
        with pytest.raises(ValueError, match=f"^the model lacks '{name}'$"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["rf", "gbm"])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TreeConfig)])
    def test_each_missing_config_field_named(self, builtin, kind, name):
        doc = self._document(builtin, kind)
        del doc["config"][name]
        with pytest.raises(ValueError, match=f"^config lacks '{name}'$"):
            model_from_json(json.dumps(doc))

    def test_unknown_kind_rejected(self, builtin):
        doc = self._document(builtin, "rf")
        doc["kind"] = "xgb"
        with pytest.raises(ValueError, match="^unknown model kind 'xgb'$"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[]", "[1, 2]", '"weldlab.model"', "3"])
    def test_non_object_document_rejected(self, text):
        with pytest.raises(ValueError, match="not a weldlab model document"):
            model_from_json(text)

    def test_version_checked(self, builtin):
        with pytest.raises(ValueError):
            model_from_json('{"format": "weldlab.model", "version": 99}')
        with pytest.raises(ValueError):
            model_from_json('{"format": "other"}')
        # JSON's true and 1.0 equal 1 in Python, but are no version number.
        doc = json.loads(model_to_json(fit_random_forest(builtin, trees=2, seed=0)))
        model_from_json(json.dumps(doc))
        for version in (True, 1.0):
            with pytest.raises(ValueError, match="model version"):
                model_from_json(json.dumps({**doc, "version": version}))


class TestBuildTreeRngConsumption:
    def test_subsampled_forest_uses_fewer_features_per_split(self, builtin):
        model = fit_random_forest(builtin, trees=50, m=1, seed=21)

        # with m=1 each split searched a single feature, so some trees must
        # split on non-rpm features even though rpm dominates
        features_used = set()

        def walk(node):
            if isinstance(node, Leaf):
                return
            features_used.add(node.feature)
            walk(node.left)
            walk(node.right)

        for t in model.trees:
            walk(t)
        assert len(features_used) == 3
