"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import math
import time

import numpy as np
import pytest

from weldlab.anova import anova_table, f_survival, fit_glm, summary_from_aggregates
from weldlab.cart import (
    ClassDistribution,
    SplitPartition,
    TreeConfig,
    entropy,
    fit_regression_tree,
    gain_ratio,
    gini_impurity,
    information_gain,
    predict_tree,
    split_info,
)
from weldlab.dataset import builtin_aa6262, kfold_plan
from weldlab.ensemble import (
    ModelSpec,
    cross_validate,
    feature_importance,
    fit_gbm,
    fit_random_forest,
    model_from_json,
    model_to_json,
    predict_ensemble_many,
    regression_metrics,
)
from weldlab.kernels import best_split
from weldlab.pipeline import RunConfig, report_json, run_pipeline
from weldlab.published import (
    PUBLISHED_ANOVA_SS,
    PUBLISHED_ERROR_DF,
    PUBLISHED_ERROR_SS,
    PUBLISHED_R_SQ,
    PUBLISHED_R_SQ_ADJUSTED,
    PUBLISHED_R_SQ_PREDICTED,
    PUBLISHED_S,
    PUBLISHED_TOTAL_DF,
    PUBLISHED_TOTAL_SS,
)
from weldlab.taguchi import (
    check_design,
    optimal_combination,
    response_table,
    sn_larger_is_better,
)

from conftest import assert_split_optimal, f_tail_quadrature

BUILTIN = builtin_aa6262()


def passed(n: int, detail: str) -> None:
    print(f"[acceptance] criterion {n:2d}: PASS - {detail}")


def test_criterion_01_published_anova_arithmetic():
    """Printed SS/DF through the MS/F/p arithmetic reproduce the printed
    MS/F/p values."""
    printed = {  # source -> printed (MS, F, p)
        "rpm": (116.311, 145.62, 0.007),
        "traverse_mm_min": (1.483, 1.86, 0.350),
        "plan_depth_mm": (66.889, 83.75, 0.012),
    }
    assert set(printed) == set(PUBLISHED_ANOVA_SS)
    mse = PUBLISHED_ERROR_SS / PUBLISHED_ERROR_DF
    for source, (df, ss) in PUBLISHED_ANOVA_SS.items():
        want_ms, want_f, want_p = printed[source]
        ms = ss / df
        f = ms / mse
        p = f_survival(f, df, PUBLISHED_ERROR_DF)
        assert ms == pytest.approx(want_ms, abs=0.001)
        assert f == pytest.approx(want_f, abs=0.1)
        assert p == pytest.approx(want_p, abs=0.001)
    passed(1, "published ANOVA rows reproduce internally (MS, F, p)")


def test_criterion_02_published_model_summary():
    """S/R^2/adjusted R^2 from the printed aggregates; predicted R^2 via the
    ordering invariant only."""
    s = summary_from_aggregates(PUBLISHED_ERROR_SS, PUBLISHED_ERROR_DF,
                                PUBLISHED_TOTAL_SS, PUBLISHED_TOTAL_DF)
    assert s.s == pytest.approx(PUBLISHED_S, abs=0.001)
    assert s.r_sq == pytest.approx(PUBLISHED_R_SQ, abs=0.0002)
    assert s.r_sq_adjusted == pytest.approx(PUBLISHED_R_SQ_ADJUSTED, abs=0.0002)
    # printed chain consistent with pred <= adj <= R^2
    assert PUBLISHED_R_SQ_PREDICTED <= PUBLISHED_R_SQ_ADJUSTED <= PUBLISHED_R_SQ
    passed(2, "published model summary reproduced (S, R^2, adjusted R^2)")


def test_criterion_03_f_tail():
    for f in (1.86, 83.75, 145.62):
        assert f_survival(f, 2, 2) == pytest.approx(1.0 / (1.0 + f), abs=1e-10)
    for d1 in (1, 2, 3, 5):
        for d2 in (1, 2, 3, 5):
            for f in (0.5, 1.0, 2.0, 10.0):
                assert f_survival(f, d1, d2) == pytest.approx(
                    f_tail_quadrature(f, d1, d2), abs=1e-6
                )
    passed(3, "F tail matches the closed form and brute-force quadrature")


def test_criterion_04_honest_anova():
    fit = fit_glm(BUILTIN)
    assert fit.sst == pytest.approx(177.736, abs=0.01)

    # independent pseudo-inverse least-squares oracle for adjusted SS
    def pinv_sse(drop=None):
        y = BUILTIN.responses()
        F = BUILTIN.features()
        cols = [np.ones(9)]
        for fi in range(3):
            if fi == drop:
                continue
            levels = sorted(set(F[:, fi]))
            for k in range(len(levels) - 1):
                cols.append(
                    np.where(F[:, fi] == levels[k], 1.0,
                             np.where(F[:, fi] == levels[-1], -1.0, 0.0))
                )
        X = np.column_stack(cols)
        resid = y - X @ (np.linalg.pinv(X) @ y)
        return float(resid @ resid)

    table = anova_table(fit)
    full = pinv_sse()
    for fi, row in enumerate(table.rows):
        assert row.adj_ss == pytest.approx(pinv_sse(drop=fi) - full, abs=1e-6)

    doc = run_pipeline(RunConfig(trees=10, seed=0))
    flagged = [
        d for d in doc.discrepancies if str(PUBLISHED_TOTAL_SS) in d.published
    ]
    assert len(flagged) == 1
    passed(4, "honest ANOVA of the embedded runs; published total flagged")


def test_criterion_05_taguchi():
    for r in BUILTIN.runs:
        assert sn_larger_is_better([r.hardness]) == pytest.approx(
            20 * math.log10(r.hardness), abs=1e-9
        )
    table = response_table(BUILTIN)
    expected = {
        "rpm": (66.3267, 69.4667, 61.1333),
        "traverse_mm_min": (62.8, 65.3933, 68.7333),
        "plan_depth_mm": (68.2, 63.5267, 65.2),
    }
    for eff in table.raw:
        for got, want in zip(eff.means, expected[eff.factor]):
            assert got == pytest.approx(want, abs=1e-3)
    best = optimal_combination(table, basis="raw")
    assert [c.level_value for c in best] == [1000.0, 60.0, 0.1]

    doc = run_pipeline(RunConfig(trees=10, seed=0))
    assert any(
        d.topic == "optimal level combination" for d in doc.discrepancies
    )
    passed(5, "S/N values, level means, and raw-basis optimum (1000, 60, 0.1)")


def test_criterion_06_design_diagnostics():
    diag = check_design(BUILTIN)
    assert all(diag.balanced.values())
    assert diag.non_orthogonal_pairs() == (("traverse_mm_min", "plan_depth_mm"),)
    passed(6, "balanced per factor; (traverse, depth) pair non-orthogonal")


def test_criterion_07_purity_toolbox():
    assert entropy(ClassDistribution(counts=(1, 1))) == pytest.approx(1.0)
    assert entropy(ClassDistribution(counts=(4,))) == 0.0
    assert entropy(ClassDistribution(counts=(1, 1, 1, 1))) == pytest.approx(2.0)
    assert gini_impurity(ClassDistribution(counts=(5,))) == 0.0
    assert gini_impurity(ClassDistribution(counts=(1, 1))) == pytest.approx(0.5)
    assert gini_impurity(ClassDistribution(counts=(1, 1, 1))) == pytest.approx(
        2.0 / 3.0, abs=1e-12
    )
    sep = SplitPartition.from_label_groups([["A", "A"], ["B", "B"]])
    assert information_gain(sep) == pytest.approx(1.0)
    assert gain_ratio(sep) == pytest.approx(1.0)
    mixed = SplitPartition.from_label_groups([["A", "A"], ["A", "B"]])
    assert information_gain(mixed) == pytest.approx(0.3113, abs=1e-4)
    four = SplitPartition.from_label_groups([["A"], ["B"], ["C"], ["D"]])
    assert gain_ratio(four) == pytest.approx(1.0)

    # sign normalization: -sum(w log2 w) is positive for any real split
    assert split_info(mixed) > 0

    # 10,000 randomized small partitions against direct evaluation
    rng = np.random.default_rng(1234)
    for _ in range(10_000):
        size = int(rng.integers(2, 13))
        labels = [int(v) for v in rng.integers(0, 4, size)]
        k = int(rng.integers(2, 5))
        cuts = sorted(int(c) for c in rng.integers(0, size + 1, k - 1))
        groups, prev = [], 0
        for c in cuts + [size]:
            groups.append(labels[prev:c])
            prev = c
        groups = [g for g in groups if g] or [labels]
        split = SplitPartition.from_label_groups(groups)
        ig = information_gain(split)
        assert ig >= -1e-12
        # direct evaluation over raw label lists
        n = len(labels)
        h_parent = -sum(
            (labels.count(v) / n) * math.log2(labels.count(v) / n)
            for v in set(labels)
        )
        h_children = sum(
            (len(g) / n)
            * -sum(
                (g.count(v) / len(g)) * math.log2(g.count(v) / len(g))
                for v in set(g)
            )
            for g in groups
        )
        assert ig == pytest.approx(h_parent - h_children, abs=1e-12)
    passed(7, "purity toolbox examples and 10,000-partition gain sweep")


def test_criterion_08_tree_and_ensemble_properties():
    t0 = time.perf_counter()

    # unlimited tree reaches zero training MSE
    tree = fit_regression_tree(BUILTIN)
    pred = np.asarray([predict_tree(tree, row) for row in BUILTIN.features()])
    assert float(np.mean((pred - BUILTIN.responses()) ** 2)) == 0.0

    # split search equals the exhaustive oracle on 1,000 random instances
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        p = int(rng.integers(1, 5))
        X = np.ascontiguousarray(rng.uniform(-10, 10, (n, p)))
        y = rng.uniform(-10, 10, n)
        f, thr, _, _ = best_split(X, y, np.arange(p, dtype=np.int64), 1)
        assert_split_optimal(X, y, f, thr)

    # GBM training MSE non-increasing for each learning rate
    for nu in (0.1, 0.3, 1.0):
        model = fit_gbm(BUILTIN, rounds=50, cfg=TreeConfig(max_depth=3), nu=nu)
        for earlier, later in zip(model.train_mse, model.train_mse[1:]):
            assert later <= earlier + 1e-12

    # all predictions within the observed response range
    X = BUILTIN.features()
    for model in (
        fit_random_forest(BUILTIN, trees=200, m=3, seed=7),
        fit_gbm(BUILTIN, rounds=50, cfg=TreeConfig(max_depth=3), nu=1.0),
    ):
        p_ = predict_ensemble_many(model, X)
        assert p_.min() >= 58.3 - 1e-9
        assert p_.max() <= 74.2 + 1e-9

    # bagging variance: 50-tree across-seed variance <= 1-tree, per run
    seeds = range(32)
    pred_1 = np.array(
        [predict_ensemble_many(fit_random_forest(BUILTIN, trees=1, seed=s), X)
         for s in seeds]
    )
    pred_50 = np.array(
        [predict_ensemble_many(fit_random_forest(BUILTIN, trees=50, seed=s), X)
         for s in seeds]
    )
    assert np.all(pred_50.var(axis=0) <= pred_1.var(axis=0))

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 8 took {elapsed:.1f}s (budget 10s)"
    passed(8, f"tree/ensemble property sweep in {elapsed:.1f}s (< 10s)")


def test_criterion_09_feature_importance_argmax():
    tree = fit_regression_tree(BUILTIN)
    assert feature_importance(tree, n_features=3).argmax == 0
    forest = fit_random_forest(BUILTIN, trees=200, m=3, seed=7)
    assert feature_importance(forest).argmax == 0
    passed(9, "importance argmax = rpm for single tree and 200-tree forest")


def test_criterion_10_cv_metrics_substitution():
    plan = kfold_plan(9, 9, seed=7)
    spec = ModelSpec(kind="rf", trees=100, m=3, seed=7)
    a = cross_validate(BUILTIN, spec, plan)
    b = cross_validate(BUILTIN, spec, plan)
    assert a.predictions == b.predictions
    assert a.pooled == b.pooled

    # metrics module hand-arithmetic examples, exact
    m = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert m.mse == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert m.mae == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert m.r_sq == pytest.approx(0.5, abs=1e-15)
    perfect = regression_metrics([1.0, 2.0], [1.0, 2.0])
    assert (perfect.mse, perfect.mae, perfect.r_sq) == (0.0, 0.0, 1.0)
    passed(10, "published test metrics substituted by deterministic LOOCV")


def test_criterion_11_determinism_and_serialization():
    cfg = RunConfig(trees=40, seed=7)
    a = report_json(run_pipeline(cfg))
    b = report_json(run_pipeline(cfg))
    assert a.encode() == b.encode()

    model = fit_random_forest(BUILTIN, trees=30, m=2, seed=19)
    loaded = model_from_json(model_to_json(model))
    X = BUILTIN.features()
    diff = np.abs(
        predict_ensemble_many(model, X) - predict_ensemble_many(loaded, X)
    )
    assert float(diff.max()) <= 1e-12

    gbm = fit_gbm(BUILTIN, rounds=12, cfg=TreeConfig(max_depth=3), nu=0.4, lam=1.0)
    gbm_loaded = model_from_json(model_to_json(gbm))
    diff = np.abs(
        predict_ensemble_many(gbm, X) - predict_ensemble_many(gbm_loaded, X)
    )
    assert float(diff.max()) <= 1e-12
    passed(11, "byte-identical reports; serialize/load round trip exact")
