"""Bagged forests, gradient-boosted trees, importance, metrics, and CV.

A `ModelSpec` is the one check of model settings, and `fit_model` the one
fitting entry: `fit_random_forest` and `fit_gbm` build a spec and call it,
and `cross_validate` trains its folds through the same private
`_fit_models` on row ids of the caller's dataset.

Every random choice derives from the caller's 64-bit seed: tree t of a
forest trains on ``bootstrap_indices(n, derive_seed(seed, t))`` and draws
its per-node feature subsets from the same derived seed, so each tree is
independent of the order in which the trees are trained.  When nodes search
every feature, the forests of one `fit_model` or `cross_validate` call (its
single forest, or the forests of all its folds) build each distinct node
(same ordered run ids of the dataset, and same depth under a depth limit)
once and share that frozen subtree object.  Such a forest grows all its
trees together, level by level, scoring each level's new nodes in batched
kernel passes.  When nodes search a feature subset, every tree of the call
grows in lockstep: each tree pops its nodes in preorder, so its draws keep
the recursion's order, and the nodes waiting to be split are scored in
batched kernel passes, one per node size.  Either way the trees,
predictions and serialized bytes are exactly those of trees grown one by
one.  Boosting is the stagewise additive update F_m = F_{m-1} + nu * h_m
with F_0 = mean(y) and leaf values sum(residuals) / (count + lambda).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ._rng import SplitMix64, derive_seed
from .cart import (
    Internal,
    Leaf,
    TreeConfig,
    TreeNode,
    _check_real_fields,
    _grow_levels,
    _grow_lockstep,
    _route,
    _set_int_fields,
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


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to train one model reproducibly, checked here
    once, before any compute; only ``m <= feature count`` waits for the
    data, at fit time."""

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
        _set_int_fields(self, ("trees", "rounds", "seed")
                        + (() if self.m is None else ("m",)))
        _check_real_fields(self, ("nu", "lam"))
        if self.trees < 1:
            raise ValueError(f"trees must be >= 1, got {self.trees}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if self.m is not None and self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu must be in (0, 1], got {self.nu}")
        if not self.lam >= 0.0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")


def _shrink_leaves(t: TreeNode, lam: float) -> TreeNode:
    """Rescale leaf means to sum(residuals) / (n + lambda)."""
    if isinstance(t, Leaf):
        return Leaf(value=t.value * (t.n / (t.n + lam)), n=t.n)
    return Internal(
        feature=t.feature, threshold=t.threshold, decrease=t.decrease, n=t.n,
        left=_shrink_leaves(t.left, lam), right=_shrink_leaves(t.right, lam),
    )


def _fit_models(X, y, fits, spec: ModelSpec) -> list[EnsembleModel]:
    """One `spec` model per ``(ids, seed)`` pair in `fits`, trained on the
    rows `ids` of (X, y) with that seed, in that order.

    A model on a subset of a dataset's rows equals one fitted on the
    sub-dataset of those rows.  A boosted model trains on ``X[ids], y[ids]``.
    Forest tree t trains on ``ids[bootstrap_indices(len(ids),
    derive_seed(seed, t))]`` (or on `ids` without bootstrap).

    When nodes search every feature (m == p), the forests share one subtree
    memo (see `build_tree`).  `cart._grow_levels` grows each forest's roots
    together, level by level, and its trees' `build_tree` calls find them
    there.  One pass per forest, not one over all forests, keeps fewer
    nodes pending and peak memory lower.  With m < p the bootstraps of every
    forest are drawn first, and `cart._grow_lockstep` then grows all their
    trees in one pass, tree t drawing its feature subsets from
    ``SplitMix64(derive_seed(tree seed, 1))`` in preorder; its capped
    kernel calls bound peak memory instead.
    """
    n_features = X.shape[1]
    cfg = spec.config
    models: list[EnsembleModel] = []
    if spec.kind == "gbm":
        for ids, seed in fits:
            Xs, ys = X[ids], y[ids]
            f0 = float(ys.mean())
            current = np.full_like(ys, f0)
            mse_track = [float(np.mean((ys - current) ** 2))]
            stages = []
            rows = Xs.tolist()
            for _ in range(spec.rounds):
                stage = build_tree(Xs, ys - current, cfg)
                if spec.lam > 0.0:
                    stage = _shrink_leaves(stage, spec.lam)
                stages.append(stage)
                current = current + spec.nu * np.asarray(
                    [_route(stage, row) for row in rows])
                mse_track.append(float(np.mean((ys - current) ** 2)))
            models.append(BoostModel(
                f0=f0,
                stages=tuple(stages),
                nu=spec.nu,
                lam=spec.lam,
                n_features=n_features,
                seed=seed,
                config=cfg,
                train_mse=tuple(mse_track),
            ))
        return models
    m = n_features if spec.m is None else spec.m
    if m > n_features:
        raise ValueError(f"m must be in [1, {n_features}], got {m}")

    def draw(ids, seed):
        """The tree seeds of the forest fitted on rows `ids` with `seed`,
        and each tree's root row ids."""
        tree_seeds = tuple(derive_seed(seed, t) for t in range(spec.trees))
        return tree_seeds, [
            ids[bootstrap_indices(ids.size, ts)] if spec.bootstrap else ids
            for ts in tree_seeds
        ]

    forests = []  # (seed, tree seeds, trees) of each fit
    if m == n_features:
        memo: dict = {}
        for ids, seed in fits:
            tree_seeds, roots = draw(ids, seed)
            # No node draws features, so no tree needs its rng stream.
            _grow_levels(X, y, roots, cfg, memo)
            forests.append((seed, tree_seeds, [
                build_tree(X, y, cfg, rows=rows, memo=memo) for rows in roots
            ]))
    else:
        drawn = [(seed, *draw(ids, seed)) for ids, seed in fits]
        grown = _grow_lockstep(
            X, y, [rows for _, _, roots in drawn for rows in roots],
            [SplitMix64(derive_seed(ts, 1))
             for _, tree_seeds, _ in drawn for ts in tree_seeds],
            m, cfg,
        )
        for f, (seed, tree_seeds, _) in enumerate(drawn):
            forests.append(
                (seed, tree_seeds, grown[f * spec.trees:(f + 1) * spec.trees]))
    for seed, tree_seeds, trees in forests:
        models.append(ForestModel(
            trees=tuple(trees),
            tree_seeds=tree_seeds,
            n_features=n_features,
            m=m,
            bootstrap=spec.bootstrap,
            seed=seed,
            config=cfg,
        ))
    return models


def fit_model(d: Dataset, spec: ModelSpec) -> EnsembleModel:
    """Fit the model `spec` describes on every run of `d`."""
    (model,) = _fit_models(d.features(), d.responses(),
                           [(np.arange(len(d)), spec.seed)], spec)
    return model


def fit_random_forest(
    d: Dataset,
    trees: int,
    cfg: TreeConfig = TreeConfig(),
    m: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
) -> ForestModel:
    """Bagged regression forest; `m` features searched per split (default all)."""
    return fit_model(d, ModelSpec(kind="rf", config=cfg, trees=trees, m=m,
                                  bootstrap=bootstrap, seed=seed))


def fit_gbm(
    d: Dataset,
    rounds: int,
    cfg: TreeConfig = TreeConfig(max_depth=3),
    nu: float = 0.3,
    lam: float = 0.0,
    seed: int = 0,
) -> BoostModel:
    """Squared-error gradient boosting with shrinkage and L2 leaf penalty."""
    return fit_model(d, ModelSpec(kind="gbm", config=cfg, rounds=rounds,
                                  nu=nu, lam=lam, seed=seed))


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
class CvResult:
    plan: FoldPlan
    fold_metrics: tuple[RegressionMetrics | None, ...]  # None for 1-run folds
    pooled: RegressionMetrics
    predictions: tuple[float, ...]  # per run, from the fold that held it out


def cross_validate(d: Dataset, spec: ModelSpec, plan: FoldPlan) -> CvResult:
    """Train on each fold's complement, predict the fold, pool everything.

    Fold f trains with seed derive_seed(spec.seed, f) so the result is
    deterministic and independent of evaluation order.  Every fold model,
    forest or boosted, is fitted by `_fit_models` on the row ids of its
    training runs in `d`, which equals `fit_model` on the sub-dataset of
    those runs; the forest folds of one call share each identical subtree.
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
    models = _fit_models(X, y, folds, spec)
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
