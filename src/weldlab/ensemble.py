"""Bagged forests, gradient-boosted trees, importance, metrics, and CV.

Every random choice derives from the caller's 64-bit seed: tree t of a
forest trains on ``bootstrap_indices(n, derive_seed(seed, t))`` and draws
its per-node feature subsets from the same derived seed, so each tree is
independent of the order in which the trees are trained.  When nodes search
every feature, the forests of one `fit_random_forest` or `cross_validate`
call (its single forest, or the forests of all its folds) build each
distinct node (same ordered run ids of the dataset, and same depth under a
depth limit) once and share that frozen subtree object.  Such a forest
grows all its trees together, level by level, scoring each level's new
nodes in batched kernel passes; the trees, predictions and serialized
bytes are exactly those of trees grown one by one.  Boosting is the
stagewise additive update F_m = F_{m-1} + nu * h_m with F_0 = mean(y)
and leaf values sum(residuals) / (count + lambda).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from ._rng import SplitMix64, derive_seed
from .cart import (
    Internal,
    Leaf,
    TreeConfig,
    TreeNode,
    _grow_levels,
    _route,
    build_tree,
    tree_arity,
)
from .dataset import Dataset, FoldPlan, bootstrap_indices


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeNode, ...]  # index order fixes the aggregation order
    tree_seeds: tuple[int, ...]
    n_features: int
    m: int  # features searched per split
    bootstrap: bool
    seed: int
    config: TreeConfig


@dataclass(frozen=True)
class BoostModel:
    f0: float
    stages: tuple[TreeNode, ...]
    nu: float
    lam: float
    n_features: int
    seed: int
    config: TreeConfig
    train_mse: tuple[float, ...]  # element 0 is the F_0 model's MSE


EnsembleModel = Union[ForestModel, BoostModel]


def _fit_forests(X, y, fits, trees, cfg, m, bootstrap) -> list[ForestModel]:
    """One forest per ``(ids, seed)`` pair in `fits`, grown on the rows
    `ids` of (X, y), in that order.

    Tree t trains on ``ids[bootstrap_indices(len(ids), derive_seed(seed, t))]``
    (or on `ids` without bootstrap), so a forest on a subset of a dataset's
    rows equals one fitted on the sub-dataset of those rows.

    When nodes search every feature (m == p), the forests share one subtree
    memo (see `build_tree`).  `cart._grow_levels` grows each forest's roots
    together, level by level, and its trees' `build_tree` calls find them
    there.  One pass per forest, not one over all forests, keeps fewer
    nodes pending and peak memory lower.  With m < p each tree grows by the
    preorder recursion of `build_tree`, keeping its feature draws in order.
    """
    if trees < 1:
        raise ValueError(f"tree count must be >= 1, got {trees}")
    n_features = X.shape[1]
    if m is None:
        m = n_features
    if not 1 <= m <= n_features:
        raise ValueError(f"m must be in [1, {n_features}], got {m}")
    memo: dict = {}
    forests = []
    for ids, seed in fits:
        tree_seeds = tuple(derive_seed(seed, t) for t in range(trees))
        roots = [ids[bootstrap_indices(ids.size, ts)] if bootstrap else ids
                 for ts in tree_seeds]
        if m == n_features:
            # No node draws features, so no tree needs its rng stream.
            _grow_levels(X, y, roots, cfg, memo)
            fitted = tuple(build_tree(X, y, cfg, rows=rows, memo=memo)
                           for rows in roots)
        else:
            fitted = tuple(
                build_tree(X, y, cfg, rng=SplitMix64(derive_seed(ts, 1)),
                           n_feature_candidates=m, rows=rows)
                for ts, rows in zip(tree_seeds, roots)
            )
        forests.append(ForestModel(
            trees=fitted,
            tree_seeds=tree_seeds,
            n_features=n_features,
            m=m,
            bootstrap=bootstrap,
            seed=seed,
            config=cfg,
        ))
    return forests


def fit_random_forest(
    d: Dataset,
    trees: int,
    cfg: TreeConfig = TreeConfig(),
    m: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
) -> ForestModel:
    """Bagged regression forest; `m` features searched per split (default all)."""
    y = d.responses()
    (forest,) = _fit_forests(
        d.features(), y, [(np.arange(y.shape[0]), seed)], trees, cfg, m,
        bootstrap,
    )
    return forest


def _shrink_leaves(t: TreeNode, lam: float) -> TreeNode:
    """Rescale leaf means to sum(residuals) / (n + lambda)."""
    if isinstance(t, Leaf):
        return Leaf(value=t.value * (t.n / (t.n + lam)), n=t.n)
    return Internal(
        feature=t.feature, threshold=t.threshold, decrease=t.decrease, n=t.n,
        left=_shrink_leaves(t.left, lam), right=_shrink_leaves(t.right, lam),
    )


def fit_gbm(
    d: Dataset,
    rounds: int,
    cfg: TreeConfig = TreeConfig(max_depth=3),
    nu: float = 0.3,
    lam: float = 0.0,
    seed: int = 0,
) -> BoostModel:
    """Squared-error gradient boosting with shrinkage and L2 leaf penalty."""
    if rounds < 0:
        raise ValueError(f"round count must be >= 0, got {rounds}")
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"learning rate must be in (0, 1], got {nu}")
    if not lam >= 0.0:
        raise ValueError(f"L2 leaf penalty must be >= 0, got {lam}")
    X = d.features()
    y = d.responses()
    f0 = float(y.mean())
    current = np.full_like(y, f0)
    mse_track = [float(np.mean((y - current) ** 2))]
    stages = []
    rows = X.tolist()
    for _ in range(rounds):
        residuals = y - current
        stage = build_tree(X, residuals, cfg)
        if lam > 0.0:
            stage = _shrink_leaves(stage, lam)
        stages.append(stage)
        current = current + nu * np.asarray([_route(stage, row) for row in rows])
        mse_track.append(float(np.mean((y - current) ** 2)))
    return BoostModel(
        f0=f0,
        stages=tuple(stages),
        nu=nu,
        lam=lam,
        n_features=X.shape[1],
        seed=seed,
        config=cfg,
        train_mse=tuple(mse_track),
    )


def predict_ensemble(model: EnsembleModel, x: Sequence[float]) -> float:
    """Forest: mean over trees in index order.  Boost: F0 + nu * sum(h_m)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.n_features:
        raise ValueError(
            f"expected a feature vector of length {model.n_features}"
        )
    row = x.tolist()  # Python floats: cheaper to index than numpy scalars
    if isinstance(model, ForestModel):
        return float(sum(_route(t, row) for t in model.trees) / len(model.trees))
    return model.f0 + model.nu * sum(_route(t, row) for t in model.stages)


def predict_ensemble_many(model: EnsembleModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return np.asarray([predict_ensemble(model, row) for row in X])


# --- feature importance ---------------------------------------------------


@dataclass(frozen=True)
class FeatureImportance:
    scores: tuple[float, ...]  # normalized to sum 1, or all zero

    @property
    def argmax(self) -> int:
        return max(range(len(self.scores)), key=lambda i: (self.scores[i], -i))


def _accumulate_importance(t: TreeNode, n_root: int, acc: np.ndarray):
    if isinstance(t, Leaf):
        return
    acc[t.feature] += (t.n / n_root) * t.decrease
    _accumulate_importance(t.left, n_root, acc)
    _accumulate_importance(t.right, n_root, acc)


def feature_importance(
    model: Union[EnsembleModel, TreeNode], n_features: int | None = None
) -> FeatureImportance:
    """Impurity-decrease importance: each split adds (sample fraction) *
    (variance decrease) to its feature; trees of an ensemble are averaged;
    scores normalize to sum 1 unless the model never splits."""
    if isinstance(model, (ForestModel, BoostModel)):
        nf = model.n_features
        trees = model.trees if isinstance(model, ForestModel) else model.stages
    else:
        nf = n_features if n_features is not None else tree_arity(model)
        trees = (model,)
    acc = np.zeros(max(nf, 1))
    for t in trees:
        if isinstance(t, Internal):
            _accumulate_importance(t, t.n, acc)
    total = acc.sum()
    if total > 0.0:
        acc = acc / total
    return FeatureImportance(scores=tuple(float(v) for v in acc))


# --- metrics and cross-validation ----------------------------------------


@dataclass(frozen=True)
class RegressionMetrics:
    mse: float
    mae: float
    r_sq: float | None  # None when the actuals have zero variance


def regression_metrics(y, yhat) -> RegressionMetrics:
    """MSE, MAE, and R^2 = 1 - SS_res/SS_tot (baseline: mean of `y`)."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape or y.ndim != 1:
        raise ValueError("y and yhat must be 1-d arrays of equal length")
    if y.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    err = y - yhat
    mse = float(np.mean(err * err))
    mae = float(np.mean(np.abs(err)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = None if ss_tot == 0.0 else 1.0 - float(np.sum(err * err)) / ss_tot
    return RegressionMetrics(mse=mse, mae=mae, r_sq=r_sq)


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to train one model reproducibly."""

    kind: str  # "rf" | "gbm"
    config: TreeConfig = TreeConfig()
    trees: int = 200
    m: int | None = None
    bootstrap: bool = True
    rounds: int = 50
    nu: float = 0.3
    lam: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("rf", "gbm"):
            raise ValueError(f"model kind must be 'rf' or 'gbm', got {self.kind!r}")


def fit_model(d: Dataset, spec: ModelSpec) -> EnsembleModel:
    """Fit the model `spec` describes."""
    if spec.kind == "rf":
        return fit_random_forest(
            d, trees=spec.trees, cfg=spec.config, m=spec.m,
            seed=spec.seed, bootstrap=spec.bootstrap,
        )
    return fit_gbm(
        d, rounds=spec.rounds, cfg=spec.config, nu=spec.nu, lam=spec.lam,
        seed=spec.seed,
    )


@dataclass(frozen=True)
class CvResult:
    plan: FoldPlan
    fold_metrics: tuple[RegressionMetrics | None, ...]  # None for 1-run folds
    pooled: RegressionMetrics
    predictions: tuple[float, ...]  # per run, from the fold that held it out


def cross_validate(d: Dataset, spec: ModelSpec, plan: FoldPlan) -> CvResult:
    """Train on each fold's complement, predict the fold, pool everything.

    Fold f trains with seed derive_seed(spec.seed, f) so the result is
    deterministic and independent of evaluation order.  A forest fold grows
    on the rows of `d` itself, ``train[bootstrap_indices(len(train), ts)]``
    for tree seed ts, which equals fitting the sub-dataset of its training
    runs; the folds of one call share each identical subtree.
    """
    n = len(d)
    if len(plan.assignments) != n:
        raise ValueError("fold plan does not cover the dataset")
    y = d.responses()
    X = d.features()
    folds = []  # (training run ids, fold seed)
    for f in range(plan.k):
        train = np.asarray([i for i in range(n) if plan.assignments[i] != f])
        if train.size < 2:
            raise ValueError(
                f"fold {f} leaves only {train.size} training runs (need >= 2)"
            )
        folds.append((train, derive_seed(spec.seed, f)))
    if spec.kind == "rf":
        models = _fit_forests(X, y, folds, spec.trees, spec.config, spec.m,
                              spec.bootstrap)
    else:
        models = [
            fit_model(
                Dataset(runs=tuple(d.runs[i] for i in train.tolist()),
                        factor_names=d.factor_names,
                        response_name=d.response_name),
                replace(spec, seed=fold_seed),
            )
            for train, fold_seed in folds
        ]
    predictions = np.empty(n)
    fold_metrics: list[RegressionMetrics | None] = []
    for f, model in enumerate(models):
        held = list(plan.fold_indices(f))
        for i in held:
            predictions[i] = predict_ensemble(model, X[i])
        if len(held) >= 2:
            fold_metrics.append(regression_metrics(y[held], predictions[held]))
        else:
            fold_metrics.append(None)
    pooled = regression_metrics(y, predictions)
    return CvResult(
        plan=plan,
        fold_metrics=tuple(fold_metrics),
        pooled=pooled,
        predictions=tuple(float(v) for v in predictions),
    )


# --- serialization --------------------------------------------------------

MODEL_FORMAT = "weldlab.model"
MODEL_VERSION = 1


def _node_to_dict(t: TreeNode) -> dict:
    if isinstance(t, Leaf):
        return {"leaf": {"value": t.value, "n": t.n}}
    return {
        "split": {
            "feature": t.feature,
            "threshold": t.threshold,
            "decrease": t.decrease,
            "n": t.n,
            "left": _node_to_dict(t.left),
            "right": _node_to_dict(t.right),
        }
    }


def _node_from_dict(obj: dict, n_features: int) -> TreeNode:
    """Rebuild a tree, rejecting any split feature outside [0, n_features)."""
    if "leaf" in obj:
        leaf = obj["leaf"]
        return Leaf(value=float(leaf["value"]), n=int(leaf["n"]))
    s = obj["split"]
    feature = int(s["feature"])
    if not 0 <= feature < n_features:
        raise ValueError(
            f"split feature {feature} is outside [0, {n_features}) "
            "for this model"
        )
    return Internal(
        feature=feature,
        threshold=float(s["threshold"]),
        decrease=float(s["decrease"]),
        n=int(s["n"]),
        left=_node_from_dict(s["left"], n_features),
        right=_node_from_dict(s["right"], n_features),
    )


def _config_to_dict(cfg: TreeConfig) -> dict:
    return {
        "max_depth": cfg.max_depth,
        "min_samples_leaf": cfg.min_samples_leaf,
        "min_impurity_decrease": cfg.min_impurity_decrease,
    }


def model_to_json(model: EnsembleModel) -> str:
    """Versioned JSON document; floats use repr so round-trips are exact."""
    doc: dict = {"format": MODEL_FORMAT, "version": MODEL_VERSION}
    if isinstance(model, ForestModel):
        doc.update(
            kind="rf",
            n_features=model.n_features,
            m=model.m,
            bootstrap=model.bootstrap,
            seed=model.seed,
            tree_seeds=list(model.tree_seeds),
            config=_config_to_dict(model.config),
            trees=[_node_to_dict(t) for t in model.trees],
        )
    elif isinstance(model, BoostModel):
        doc.update(
            kind="gbm",
            n_features=model.n_features,
            f0=model.f0,
            nu=model.nu,
            lam=model.lam,
            seed=model.seed,
            config=_config_to_dict(model.config),
            train_mse=list(model.train_mse),
            trees=[_node_to_dict(t) for t in model.stages],
        )
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> EnsembleModel:
    """Parse a model document; every split feature is checked here, once, so
    prediction can route rows without re-walking each tree."""
    doc = json.loads(text)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a weldlab model document")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')}")
    cfg = TreeConfig(**doc["config"])
    n_features = int(doc["n_features"])
    trees = tuple(_node_from_dict(t, n_features) for t in doc["trees"])
    if doc["kind"] == "rf":
        return ForestModel(
            trees=trees,
            tree_seeds=tuple(doc["tree_seeds"]),
            n_features=n_features,
            m=int(doc["m"]),
            bootstrap=bool(doc["bootstrap"]),
            seed=int(doc["seed"]),
            config=cfg,
        )
    if doc["kind"] == "gbm":
        return BoostModel(
            f0=float(doc["f0"]),
            stages=trees,
            nu=float(doc["nu"]),
            lam=float(doc["lam"]),
            n_features=n_features,
            seed=int(doc["seed"]),
            config=cfg,
            train_mse=tuple(float(v) for v in doc["train_mse"]),
        )
    raise ValueError(f"unknown model kind {doc['kind']!r}")


def save_model(model: EnsembleModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def load_model(path) -> EnsembleModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())
