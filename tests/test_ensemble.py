import itertools
import json
from collections import Counter

import numpy as np
import pytest

import weldlab.cart
import weldlab.ensemble
from weldlab._rng import SplitMix64, derive_seed
from weldlab.cart import Leaf, TreeConfig, build_tree, predict_tree, tree_arity
from weldlab.dataset import Dataset, bootstrap_indices, kfold_plan
from weldlab.ensemble import (
    BoostModel,
    ForestModel,
    ModelSpec,
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

from conftest import make_dataset

HARDNESS_RANGE = (58.3, 74.2)


@pytest.fixture
def scored_nodes(monkeypatch):
    """Nodes the split kernels score: one per `best_split` call under
    "best_split", the batch size of every `best_splits` call under
    "best_splits"."""
    scored = Counter()
    node_kernel = weldlab.cart.best_split
    batch_kernel = weldlab.cart.best_splits

    def one(*args):
        scored["best_split"] += 1
        return node_kernel(*args)

    def batch(*args):
        scored["best_splits"] += args[1].shape[0]
        return batch_kernel(*args)

    monkeypatch.setattr(weldlab.cart, "best_split", one)
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

    def test_prediction_permutation_invariant_in_tree_order(self, builtin):
        from dataclasses import replace

        model = fit_random_forest(builtin, trees=17, m=2, seed=8)
        shuffled = replace(model, trees=tuple(reversed(model.trees)))
        x = builtin.features()[2]
        assert predict_ensemble(shuffled, x) == pytest.approx(
            predict_ensemble(model, x), abs=1e-12
        )


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
                assert tree == build_tree(X[rows], y[rows], cfg, rng, m)

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
        assert scored_nodes["best_split"] == 0 < scored_nodes["best_splits"]
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
    (`cart._grow_lockstep`): every tree of the call must equal the preorder
    recursion of `build_tree` grown alone, draw for draw."""

    @staticmethod
    def _stage(d, spec, plan, monkeypatch):
        """(model, training run ids) of `fit_model` and of every
        `cross_validate` fold, in that order."""
        final = fit_model(d, spec)
        folds = TestCrossValidate._fold_models(monkeypatch)
        cross_validate(d, spec, plan)
        assert len(folds) == plan.k
        return [(final, np.arange(len(d)))] + [
            (model, np.flatnonzero(np.asarray(plan.assignments) != f))
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
        stage = self._stage(d, spec, kfold_plan(len(d), 3, seed=1), monkeypatch)
        # Every node was scored in a batch, none one at a time.
        assert scored_nodes["best_split"] == 0 < scored_nodes["best_splits"]
        X, y = d.features(), d.responses()
        for model, train in stage:
            for tree, ts in zip(model.trees, model.tree_seeds, strict=True):
                rows = self._tree_rows(train, ts, bootstrap)
                assert tree == build_tree(
                    X[rows], y[rows], cfg, rng=SplitMix64(derive_seed(ts, 1)),
                    n_feature_candidates=m,
                )

    @pytest.mark.parametrize("data", ["builtin", "factorial"])
    def test_draws_per_forest_match_the_recursion(self, builtin, monkeypatch, data):
        d = builtin if data == "builtin" else factorial_81()

        class Counting(SplitMix64):
            def __init__(self, seed):
                super().__init__(seed)
                self.subsets = 0

            def sample_without_replacement(self, n, k):
                self.subsets += 1
                return super().sample_without_replacement(n, k)

        grown = []

        def make(seed):
            grown.append(Counting(seed))
            return grown[-1]

        monkeypatch.setattr(weldlab.ensemble, "SplitMix64", make)
        cfg = TreeConfig(min_samples_leaf=2)
        spec = ModelSpec(kind="rf", config=cfg, trees=10, m=2, seed=4)
        stage = self._stage(d, spec, kfold_plan(len(d), 3, seed=0), monkeypatch)
        assert len(grown) == len(stage) * spec.trees
        X, y = d.features(), d.responses()
        for f, (model, train) in enumerate(stage):
            alone = []
            for ts in model.tree_seeds:
                rows = self._tree_rows(train, ts, True)
                alone.append(Counting(derive_seed(ts, 1)))
                build_tree(X[rows], y[rows], cfg, alone[-1], 2)
            forest = grown[f * spec.trees:(f + 1) * spec.trees]
            assert [r.subsets for r in forest] == [r.subsets for r in alone]
            assert sum(r.subsets for r in forest) > spec.trees
            # Nothing else drew either: each stream ends in the same state.
            assert [r._state for r in forest] == [r._state for r in alone]

    @pytest.mark.parametrize("data, cap", [("factorial", None), ("builtin", 20)])
    def test_size_groups_larger_than_the_row_cap(self, builtin, monkeypatch, data, cap):
        d = builtin if data == "builtin" else factorial_81()
        if cap is not None:
            monkeypatch.setattr(weldlab.cart, "_LOCKSTEP_ROWS", cap)
        cap = weldlab.cart._LOCKSTEP_ROWS
        calls = []
        batch_kernel = weldlab.cart.best_splits

        def recording(Xb, yb, features, min_leaf):
            calls.append(yb.shape)
            return batch_kernel(Xb, yb, features, min_leaf)

        monkeypatch.setattr(weldlab.cart, "best_splits", recording)
        spec = ModelSpec(kind="rf", trees=50, m=2, seed=2)
        model = fit_model(d, spec)
        roots = [B for B, n in calls if n == len(d)]
        # All 50 bootstrapped roots need a split; they exceed one call.
        assert sum(roots) == 50 and len(roots) > 1 and 50 * len(d) > cap
        assert all(B * n <= cap for B, n in calls)
        X, y = d.features(), d.responses()
        for tree, ts in zip(model.trees, model.tree_seeds, strict=True):
            rows = bootstrap_indices(len(d), ts)
            assert tree == build_tree(X[rows], y[rows], spec.config,
                                      SplitMix64(derive_seed(ts, 1)), 2)


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

    def test_lambda_shrinks_leaves(self, builtin):
        plain = fit_gbm(builtin, rounds=1, cfg=TreeConfig(max_depth=2), nu=1.0)
        penalized = fit_gbm(
            builtin, rounds=1, cfg=TreeConfig(max_depth=2), nu=1.0, lam=5.0
        )

        def leaves(node):
            if isinstance(node, Leaf):
                yield node
            else:
                yield from leaves(node.left)
                yield from leaves(node.right)

        for a, b in zip(leaves(plain.stages[0]), leaves(penalized.stages[0])):
            assert b.value == pytest.approx(a.value * a.n / (a.n + 5.0), rel=1e-12)

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
        for lam in (-1.0, float("nan")):
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
        """Record each distinct model `cross_validate` predicts with."""
        models = []
        predict = weldlab.ensemble.predict_ensemble

        def recording(model, x):
            if not any(model is seen for seen in models):
                models.append(model)
            return predict(model, x)

        monkeypatch.setattr(weldlab.ensemble, "predict_ensemble", recording)
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


class TestModelSpec:
    def test_library_entry_points_check_their_settings(self, builtin):
        with pytest.raises(ValueError, match="^trees must be an integer"):
            fit_random_forest(builtin, trees=2.5)
        with pytest.raises(ValueError, match="^nu must be a real number"):
            fit_gbm(builtin, rounds=3, nu=True)
        with pytest.raises(ValueError, match="^trees must be >= 1"):
            ModelSpec(kind="rf", trees=0)

    @pytest.mark.parametrize("bad", [
        {"trees": 0}, {"trees": 2.5}, {"trees": True}, {"rounds": -1},
        {"rounds": 1.5}, {"m": 0}, {"m": np.bool_(True)}, {"m": 2.0},
        {"nu": 0.0}, {"nu": 1.5}, {"nu": float("nan")}, {"nu": True},
        {"nu": "0.3"}, {"lam": -1.0}, {"lam": float("nan")}, {"lam": False},
        {"seed": -1}, {"seed": 2**64}, {"seed": 1.0},
    ])
    @pytest.mark.parametrize("kind", ["rf", "gbm"])
    def test_bad_setting_names_its_field(self, kind, bad):
        (field,) = bad
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ModelSpec(kind=kind, **bad)

    def test_numpy_settings_accepted_and_counts_become_ints(self):
        spec = ModelSpec(kind="gbm", trees=np.int64(3), rounds=np.uint8(2),
                         m=np.int32(2), nu=np.float64(0.5), lam=np.int16(1),
                         seed=np.uint64(2**64 - 1))
        assert spec == ModelSpec(kind="gbm", trees=3, rounds=2, m=2, nu=0.5,
                                 lam=1, seed=2**64 - 1)
        for name in ("trees", "rounds", "m", "seed"):
            assert type(getattr(spec, name)) is int


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

    def test_gbm_roundtrip_identical_predictions(self, builtin, tmp_path):
        model = fit_gbm(builtin, rounds=15, cfg=TreeConfig(max_depth=3), nu=0.3)
        path = tmp_path / "gbm.json"
        save_model(model, path)
        loaded = load_model(path)
        X = builtin.features()
        a = predict_ensemble_many(model, X)
        b = predict_ensemble_many(loaded, X)
        assert np.max(np.abs(a - b)) <= 1e-12

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

    def test_version_checked(self):
        with pytest.raises(ValueError):
            model_from_json('{"format": "weldlab.model", "version": 99}')
        with pytest.raises(ValueError):
            model_from_json('{"format": "other"}')


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
