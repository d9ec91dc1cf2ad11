"""Bagged forests, gradient-boosted trees, importance, metrics, and CV.

A `ModelSpec` is the one check of model settings, and `_fit_models` the one
fitting core: `fit_model` (and through it `fit_random_forest` and
`fit_gbm`) asks it for one model, `cross_validate` for the held-out
predictions of every fold, and the pipeline's model stage
(`_fit_and_validate`) for both at once, the final model and every fold
trained in one pass over row ids of the caller's dataset.

Every random choice derives from the caller's 64-bit seed: tree t of a
forest trains on ``bootstrap_indices(n, derive_seed(seed, t))`` and draws
its per-node feature subsets from the SplitMix64 stream seeded
``derive_seed(derive_seed(seed, t), 1)``, so each tree is independent of
the order in which the trees are trained.  All trees of one `_fit_models`
pass (a final forest, the forests of all folds, or both) grow together in
one `cart._grow_forests` pass of rounds, with one of two round policies.
When nodes search every feature, a round scores every waiting node, so the
trees grow level by level, and each distinct node of the pass (same
ordered run ids of the dataset, and same depth under a depth limit) is one
record, built once into one immutable subtree object that its trees share.
When nodes search a feature subset, a round pops one node per tree from
the tree's preorder stack, so the trees grow in lockstep.  Each tree's
stream is a lane of one ``uint64`` state array, and a round draws the
subsets of all its nodes at once; since each tree pops its nodes in
preorder, its lane draws them in the order of a preorder recursion over
that tree.  Its bootstrap comes from one `derive_seed` array call
(`lane_bootstraps`).  In lockstep only the trees of models that the caller
gets back become `Leaf` and `Internal` objects, and a fold forest predicts
its held-out runs from the records; the pipeline's final forest predicts
its own runs from them either way.  Each node's rows are a slice of one
buffer of every root's rows, and a round's nodes, of any sizes, go through
one scoring step (`cart._split`): padded to a common width, scored in a
few batched kernel calls, and split by partitioning their slices in
place.  The trees, predictions and serialized bytes are exactly those of
trees grown one by one.  Boosting is the stagewise additive update F_m =
F_{m-1} + nu * h_m with F_0 = mean(y).
Each stage h_m is grown on the residuals under XGBoost's squared-loss
objective with the L2 leaf penalty lambda: leaf values sum(residuals) /
(count + lambda), and splits chosen by the gain G_L^2 / (n_L + lambda) +
G_R^2 / (n_R + lambda) - G^2 / (n + lambda), G a node's residual sum; a
node whose best gain is not positive is a leaf.  At lambda 0 this is CART
on the residuals.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple, Sequence, Union

import numpy as np

from ._rng import derive_seed
from .cart import (
    Internal,
    Leaf,
    TreeConfig,
    TreeNode,
    _build_trees,
    _grow,
    _grow_forests,
    _preorder,
    _route,
    _route_records,
    build_tree,
    tree_arity,
)
from .dataset import (
    Dataset,
    FoldPlan,
    _check_fields,
    _integer,
    _real,
    _sequential_sum,
    bootstrap_indices,
    kfold_plan,
    lane_bootstraps,
)


class ForestModel(NamedTuple):
    trees: tuple[TreeNode, ...]  # index order fixes the aggregation order
    tree_seeds: tuple[int, ...]
    n_features: int
    m: int  # features searched per split
    bootstrap: bool
    seed: int
    config: TreeConfig


class BoostModel(NamedTuple):
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
        _check_fields(self, _integer, ("trees", "rounds", "seed")
                      + (() if self.m is None else ("m",)))
        _check_fields(self, _real, ("nu", "lam"))
        if not isinstance(self.bootstrap, (bool, np.bool_)):
            raise ValueError(f"bootstrap must be a bool, got {self.bootstrap!r}")
        object.__setattr__(self, "bootstrap", bool(self.bootstrap))
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


def _fit_models(X, y, fits, spec: ModelSpec, train: bool = False) -> list:
    """One result per ``(ids, seed, held)`` triple in `fits`, in that order:
    the `spec` model trained on the rows `ids` of (X, y) with `seed` when
    `held` is None, else that model's predictions of the rows `held`, a
    list of floats equal to `predict_ensemble`'s.  With `train` a model
    comes as the pair of it and its predictions of its own rows `ids`.

    A model on a subset of a dataset's rows equals one fitted on the
    sub-dataset of those rows.  A boosted fit turns ``X[ids]`` into lists
    once, and each round only its residuals, for its stage's `cart._grow`
    call.  Forest tree t trains on ``ids[bootstrap_indices(len(ids),
    derive_seed(seed, t))]`` (or on `ids` without bootstrap).

    One `cart._grow_forests` pass grows the trees of every fit.  When
    nodes search every feature (m == p) it grows them level by level and
    keys their nodes, so trees that reach the same node share its record;
    every record is then built into `Leaf` and `Internal` objects, and each
    tree's `build_tree` call reads its tree from the table of the distinct
    roots' keys.  With m < p every tree's bootstrap comes from
    `lane_bootstraps`, and the pass grows the trees in lockstep, tree t
    drawing its feature subsets in preorder from the lane seeded
    ``derive_seed(tree seed, 1)``.  Only the forests returned as models are
    built into objects, and the held rows of the others are routed through
    the records.  Either way a model's own rows with `train` are routed
    from its roots' records, and the pass scores nodes of all sizes
    together through `cart._split`, in kernel calls capped at
    `cart._CALL_ROWS` padded rows, which also bounds peak memory.
    """
    n_features = X.shape[1]
    cfg = spec.config

    def result(model, ids, held):
        if held is not None:
            return [predict_ensemble(model, X[i]) for i in held]
        if train:
            return model, [predict_ensemble(model, X[i]) for i in ids]
        return model

    if spec.kind == "gbm":
        models = []
        for ids, seed, held in fits:
            ys = y[ids]
            f0 = float(ys.mean())
            current = np.full_like(ys, f0)
            mse_track = [float(np.mean((ys - current) ** 2))]
            stages = []
            rows = X[ids].tolist()
            root = list(range(len(rows)))
            for _ in range(spec.rounds):
                stage = _grow(rows, (ys - current).tolist(), root, 0, cfg,
                              lam=spec.lam)
                stages.append(stage)
                current = current + spec.nu * np.asarray(
                    [_route(stage, row) for row in rows])
                mse_track.append(float(np.mean((ys - current) ** 2)))
            models.append(result(BoostModel(
                f0=f0,
                stages=tuple(stages),
                nu=spec.nu,
                lam=spec.lam,
                n_features=n_features,
                seed=seed,
                config=cfg,
                train_mse=tuple(mse_track),
            ), ids, held))
        return models
    m = n_features if spec.m is None else spec.m
    if m > n_features:
        raise ValueError(f"m must be in [1, {n_features}], got {m}")
    T = spec.trees

    def forest(seed, tree_seeds, trees):
        return ForestModel(
            trees=tuple(trees),
            tree_seeds=tree_seeds,
            n_features=n_features,
            m=m,
            bootstrap=spec.bootstrap,
            seed=seed,
            config=cfg,
        )

    fit_seeds = np.array([s for _, s, _ in fits], np.uint64)
    seeds = derive_seed(fit_seeds[:, None], np.arange(T, dtype=np.uint64))
    tree_seeds = [tuple(row) for row in seeds.tolist()]  # per fit
    roots = [
        np.broadcast_to(ids, (T, ids.size)) if not spec.bootstrap
        else ids[lane_bootstraps(ids.size, row)] if m < n_features
        else ids[np.array([bootstrap_indices(ids.size, ts) for ts in row])]
        for (ids, _, _), row in zip(fits, tree_seeds)
    ]
    keyed = m == n_features  # no node draws, so no tree needs its stream
    rec, keys, root_ids = _grow_forests(
        X, y, roots, cfg, None if keyed else derive_seed(seeds, 1).ravel(), m)
    if keyed:
        # The distinct roots, one per key, are the first records.
        memo = dict(zip(keys, _build_trees(rec, np.arange(rec.n.size))))
    # The rows each fit predicts from the records: with `train` a model's
    # own, and its held rows with m < p.  Every (row, tree) pair of every
    # fit is routed at once.
    wanted = [(ids if train else None) if held is None
              else None if keyed else held for ids, _, held in fits]
    pairs = [(np.repeat(rows, T), np.tile(root_ids[f * T:(f + 1) * T], len(rows)))
             for f, rows in enumerate(wanted) if rows is not None]
    if pairs:
        rows, nodes = map(np.concatenate, zip(*pairs))
        values = _route_records(rec, X, rows, nodes).tolist()
    out = []
    at = 0
    for f, ((_, seed, held), row, rows, block) in enumerate(
            zip(fits, tree_seeds, wanted, roots)):
        if rows is not None:
            # Each row's mean over trees in index order, as `predict_ensemble`.
            predicted = [_sequential_sum(values[i:i + T]) / T
                         for i in range(at, at + len(rows) * T, T)]
            at += len(rows) * T
        if keyed:
            model = forest(seed, row, [build_tree(X, y, cfg, rows=r, memo=memo)
                                       for r in block])
        elif held is None:
            ids = np.flatnonzero((rec.tree >= f * T) & (rec.tree < (f + 1) * T))
            model = forest(seed, row, _build_trees(rec, ids)[f * T:(f + 1) * T])
        if held is None:
            out.append((model, predicted) if train else model)
        else:  # with m == p the fold walks its read-back trees
            out.append(result(model, None, held) if keyed else predicted)
    return out


def fit_model(d: Dataset, spec: ModelSpec) -> EnsembleModel:
    """Fit the model `spec` describes on every run of `d`."""
    (model,) = _fit_models(d.features(), d.responses(),
                           [(np.arange(len(d)), spec.seed, None)], spec)
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
    """Squared-error gradient boosting with shrinkage and XGBoost's L2 leaf
    penalty `lam`, which enters both the leaf values and the split gain."""
    return fit_model(d, ModelSpec(kind="gbm", config=cfg, rounds=rounds,
                                  nu=nu, lam=lam, seed=seed))


def predict_ensemble(model: EnsembleModel, x: Sequence[float]) -> float:
    """Forest: mean over trees in index order.  Boost: F0 + nu * sum(h_m)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.n_features:
        raise ValueError(
            f"expected a feature vector of length {model.n_features}"
        )
    # Python floats (cheaper to index than numpy scalars), finite as in predict_tree
    row = [_real(v, f"feature {i}") for i, v in enumerate(x.tolist())]
    if isinstance(model, ForestModel):
        return float(_sequential_sum(_route(t, row) for t in model.trees)
                     / len(model.trees))
    return model.f0 + model.nu * _sequential_sum(_route(t, row) for t in model.stages)


def predict_ensemble_many(model: EnsembleModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return np.asarray([predict_ensemble(model, row) for row in X])


# --- feature importance ---------------------------------------------------


class FeatureImportance(NamedTuple):
    scores: tuple[float, ...]  # normalized to sum 1, or all zero

    @property
    def argmax(self) -> int:
        return max(range(len(self.scores)), key=lambda i: (self.scores[i], -i))


def feature_importance(
    model: Union[EnsembleModel, TreeNode], n_features: int | None = None
) -> FeatureImportance:
    """Impurity-decrease importance: each split adds (sample fraction) *
    (variance decrease) to its feature; trees of an ensemble are averaged;
    scores normalize to sum 1 unless the model never splits.  An ensemble's
    `n_features`, when given, must be its own."""
    if isinstance(model, (ForestModel, BoostModel)):
        nf = model.n_features
        if n_features not in (None, nf):
            raise ValueError(f"the model has {nf} features, but n_features "
                             f"is {n_features}")
        trees = model.trees if isinstance(model, ForestModel) else model.stages
    else:
        arity = tree_arity(model)
        nf = arity if n_features is None else n_features
        if nf < arity:
            raise ValueError(f"the tree's arity is {arity}, but n_features is {nf}")
        trees = (model,)
    acc = [0.0] * max(nf, 1)  # Python floats add as numpy's float64 do
    for t in trees:
        for node, _ in _preorder(t):
            if isinstance(node, Internal):
                acc[node.feature] += (node.n / t.n) * node.decrease
    acc = np.array(acc)
    total = acc.sum()
    if total > 0.0:
        acc = acc / total
    return FeatureImportance(scores=tuple(float(v) for v in acc))


# --- metrics and cross-validation ----------------------------------------


class RegressionMetrics(NamedTuple):
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


class CvResult(NamedTuple):
    plan: FoldPlan
    fold_metrics: tuple[RegressionMetrics | None, ...]  # None for 1-run folds
    pooled: RegressionMetrics
    predictions: tuple[float, ...]  # per run, from the fold that held it out


def _fold_fits(n: int, spec: ModelSpec, plan: FoldPlan) -> list:
    """The ``(training run ids, fold seed, held-out run ids)`` of each fold
    of `plan` over `n` runs: fold f trains with ``derive_seed(spec.seed,
    f)``, so the result is independent of evaluation order."""
    if len(plan.assignments) != n:
        raise ValueError("fold plan does not cover the dataset")
    fold = np.asarray(plan.assignments)
    fits = []
    for f in range(plan.k):
        train = np.flatnonzero(fold != f)
        if train.size < 2:
            raise ValueError(
                f"fold {f} leaves only {train.size} training runs (need >= 2)"
            )
        fits.append((train, derive_seed(spec.seed, f), plan.fold_indices(f)))
    return fits


def _cv_result(plan: FoldPlan, y, fold_predictions) -> CvResult:
    """Pool each fold's predictions of its held-out runs."""
    predictions = np.empty(y.size)
    fold_metrics: list[RegressionMetrics | None] = []
    for f, predicted in enumerate(fold_predictions):
        held = list(plan.fold_indices(f))
        predictions[held] = predicted
        if len(held) >= 2:
            fold_metrics.append(regression_metrics(y[held], predictions[held]))
        else:
            fold_metrics.append(None)
    return CvResult(
        plan=plan,
        fold_metrics=tuple(fold_metrics),
        pooled=regression_metrics(y, predictions),
        predictions=tuple(float(v) for v in predictions),
    )


def cross_validate(d: Dataset, spec: ModelSpec, plan: FoldPlan) -> CvResult:
    """Train on each fold's complement, predict the fold, pool everything.

    Fold f trains with seed derive_seed(spec.seed, f) so the result is
    deterministic and independent of evaluation order.  Every fold model,
    forest or boosted, is fitted by `_fit_models` on the row ids of its
    training runs in `d`, which equals `fit_model` on the sub-dataset of
    those runs, and predicts its held-out runs as `predict_ensemble` does.
    The forests of all folds grow in one `_fit_models` pass (sharing each
    identical subtree when m == p).
    """
    X, y = d.features(), d.responses()
    fits = _fold_fits(len(d), spec, plan)
    return _cv_result(plan, y, _fit_models(X, y, fits, spec))


def _fit_and_validate(d: Dataset, spec: ModelSpec, k: int):
    """`fit_model(d, spec)` and `cross_validate(d, spec, kfold_plan(len(d),
    k, spec.seed))`, equal to those two calls, from one `_fit_models` pass,
    and the model's predictions of every run of `d`, a list equal to
    ``predict_ensemble_many(model, d.features())``.

    The fold plan is built and checked before any tree grows.  The final
    forest and every fold forest grow in one pass: in lockstep with m < p,
    level by level with m == p.
    """
    plan = kfold_plan(len(d), k, spec.seed)
    X, y = d.features(), d.responses()
    fits = [(np.arange(len(d)), spec.seed, None)] + _fold_fits(len(d), spec, plan)
    (model, predicted), *fold_predictions = _fit_models(X, y, fits, spec,
                                                        train=True)
    return model, _cv_result(plan, y, fold_predictions), predicted


# --- serialization --------------------------------------------------------

MODEL_FORMAT = "weldlab.model"
MODEL_VERSION = 1


def _node_to_dict(t: TreeNode) -> dict:
    if isinstance(t, Leaf):
        return {"leaf": t._asdict()}
    return {"split": {**t._asdict(), "left": _node_to_dict(t.left),
                      "right": _node_to_dict(t.right)}}


def _fields(obj, what: str, names: Sequence[str]) -> list:
    """The values under `names` of the JSON object `obj`, a `what`; a
    malformed model file raises a ValueError that says what is wrong."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [name for name in names if name not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")
    return [obj[name] for name in names]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array")
    return value


def _node_from_dict(obj, n_features: int) -> TreeNode:
    """Rebuild a tree, rejecting any split feature outside [0, n_features)."""
    if not isinstance(obj, dict) or ("leaf" in obj) == ("split" in obj):
        raise ValueError("a tree node must be a JSON object with exactly one "
                         "of 'leaf' and 'split'")
    if "leaf" in obj:
        value, n = _fields(obj["leaf"], "a leaf", Leaf._fields)
        return Leaf(value=float(_real(value, "leaf value")),
                    n=_integer(n, "leaf n", 1))
    feature, threshold, decrease, n, left, right = _fields(
        obj["split"], "a split", Internal._fields)
    return Internal(
        feature=_integer(feature, "split feature", 0, n_features),
        threshold=float(_real(threshold, "split threshold")),
        decrease=float(_real(decrease, "split decrease")),
        n=_integer(n, "split n", 1),
        left=_node_from_dict(left, n_features),
        right=_node_from_dict(right, n_features),
    )


def model_to_json(model: EnsembleModel) -> str:
    """Versioned JSON document of the model's own fields, a boosted model's
    `stages` written under ``trees``; floats use repr so round-trips are
    exact."""
    if not isinstance(model, (ForestModel, BoostModel)):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc = model._asdict()
    forest = isinstance(model, ForestModel)
    trees = doc.pop("trees" if forest else "stages")
    doc.update(format=MODEL_FORMAT, version=MODEL_VERSION,
               kind="rf" if forest else "gbm", config=asdict(model.config),
               trees=[_node_to_dict(t) for t in trees])
    return json.dumps(doc, sort_keys=True)


def model_from_json(text: str) -> EnsembleModel:
    """Parse a model document; every split feature is checked here, once, so
    prediction can route rows without re-walking each tree.  A malformed
    document raises a ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a weldlab model document")
    if _integer(doc.get("version"), "model version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc['version']}")
    kind, config, n_features, seed, trees = _fields(
        doc, "the model", ("kind", "config", "n_features", "seed", "trees"))
    cfg = TreeConfig(*_fields(config, "config",
                              [f.name for f in fields(TreeConfig)]))
    n_features = _integer(n_features, "n_features", 1)
    trees = tuple(_node_from_dict(t, n_features)
                  for t in _list(trees, "trees"))
    if kind == "rf":
        m, bootstrap, tree_seeds = _fields(
            doc, "the model", ("m", "bootstrap", "tree_seeds"))
        if not trees:
            raise ValueError("a forest needs at least one tree")
        if len(_list(tree_seeds, "tree_seeds")) != len(trees):
            raise ValueError(f"tree_seeds has {len(tree_seeds)} entries "
                             f"for {len(trees)} trees")
        spec = ModelSpec(kind="rf", m=m, bootstrap=bootstrap, seed=seed)
        if spec.m is None or spec.m > n_features:
            raise ValueError(f"m must be in [1, {n_features}], got {m!r}")
        return ForestModel(
            trees=trees,
            tree_seeds=tuple(_integer(v, "tree seed", 0, 2**64)
                             for v in tree_seeds),
            n_features=n_features,
            m=spec.m,
            bootstrap=spec.bootstrap,
            seed=spec.seed,
            config=cfg,
        )
    if kind == "gbm":
        f0, nu, lam, train_mse = _fields(
            doc, "the model", ("f0", "nu", "lam", "train_mse"))
        if len(_list(train_mse, "train_mse")) != len(trees) + 1:
            raise ValueError(f"train_mse has {len(train_mse)} entries for "
                             f"{len(trees)} stages; it needs stages + 1")
        spec = ModelSpec(kind="gbm", nu=nu, lam=lam, seed=seed)
        return BoostModel(
            f0=float(_real(f0, "f0")),
            stages=trees,
            nu=spec.nu,
            lam=spec.lam,
            n_features=n_features,
            seed=spec.seed,
            config=cfg,
            train_mse=tuple(float(_real(v, "train_mse entry")) for v in train_mse),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model: EnsembleModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def load_model(path) -> EnsembleModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())
