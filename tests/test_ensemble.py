import json

import numpy as np
import pytest

import weldlab.cart
from weldlab._rng import SplitMix64, derive_seed
from weldlab.cart import Leaf, TreeConfig, build_tree, predict_tree
from weldlab.dataset import bootstrap_indices, kfold_plan
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

    def test_identical_trees_are_built_once(self, builtin, monkeypatch):
        calls = []
        kernel = weldlab.cart.best_split

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(weldlab.cart, "best_split", counted)
        single = fit_random_forest(builtin, trees=1, seed=3, bootstrap=False)
        per_tree = len(calls)
        model = fit_random_forest(builtin, trees=200, seed=3, bootstrap=False)
        assert per_tree > 0
        assert len(calls) == 2 * per_tree
        assert all(t is model.trees[0] for t in model.trees)
        assert model.trees[0] == single.trees[0]


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
        with pytest.raises(ValueError):
            fit_gbm(builtin, rounds=5, lam=-1.0)


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

    def test_fit_model_dispatch(self, builtin):
        rf = fit_model(builtin, ModelSpec(kind="rf", trees=3))
        gbm = fit_model(builtin, ModelSpec(kind="gbm", rounds=2))
        assert isinstance(rf, ForestModel)
        assert isinstance(gbm, BoostModel)
        with pytest.raises(ValueError):
            ModelSpec(kind="svm")


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
