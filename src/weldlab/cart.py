"""Purity measures and a CART regression tree with deterministic splits.

The purity toolbox (entropy, information gain, gain ratio, Gini) scores
class distributions; the regression tree itself splits on weighted child
response variance (the CART regression criterion).  SplitInfo carries the
standard sign, -sum(w * log2 w), so gain ratio is nonnegative.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from ._rng import SplitMix64
from .dataset import Dataset
from .kernels import best_split


# --- purity toolbox -------------------------------------------------------


@dataclass(frozen=True)
class ClassDistribution:
    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts or any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative and non-empty")
        if self.total == 0:
            raise ValueError("distribution must contain at least one item")

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def frequencies(self) -> tuple[float, ...]:
        t = self.total
        return tuple(c / t for c in self.counts)

    @classmethod
    def from_labels(cls, labels: Iterable) -> "ClassDistribution":
        counter = Counter(labels)
        return cls(counts=tuple(counter[k] for k in sorted(counter)))


@dataclass(frozen=True)
class SplitPartition:
    parent: ClassDistribution
    children: tuple[ClassDistribution, ...]

    def __post_init__(self):
        if sum(c.total for c in self.children) != self.parent.total:
            raise ValueError("child totals must sum to the parent total")

    @property
    def weights(self) -> tuple[float, ...]:
        t = self.parent.total
        return tuple(c.total / t for c in self.children)

    @classmethod
    def from_label_groups(cls, groups: Sequence[Sequence]) -> "SplitPartition":
        all_labels = [lab for g in groups for lab in g]
        keys = sorted(set(all_labels))
        parent = ClassDistribution(
            counts=tuple(Counter(all_labels)[k] for k in keys)
        )
        children = tuple(
            ClassDistribution(counts=tuple(Counter(g)[k] for k in keys))
            for g in groups
        )
        return cls(parent=parent, children=children)


def entropy(dist: ClassDistribution) -> float:
    """-sum(p * log2 p) in bits, with 0*log2(0) = 0."""
    return -sum(p * math.log2(p) for p in dist.frequencies if p > 0.0)


def information_gain(split: SplitPartition) -> float:
    """Parent entropy minus size-weighted child entropies."""
    return entropy(split.parent) - sum(
        w * entropy(c) for w, c in zip(split.weights, split.children)
    )


def split_info(split: SplitPartition) -> float:
    """-sum(w * log2 w) over child weights (zero-size children contribute 0)."""
    return -sum(w * math.log2(w) for w in split.weights if w > 0.0)


def gain_ratio(split: SplitPartition) -> float:
    """information_gain / split_info; undefined for a single-child partition."""
    si = split_info(split)
    if si == 0.0:
        raise ValueError("gain ratio undefined: split has a single non-empty child")
    return information_gain(split) / si


def gini_impurity(dist: ClassDistribution) -> float:
    """1 - sum(p^2)."""
    return 1.0 - sum(p * p for p in dist.frequencies)


# --- regression tree ------------------------------------------------------


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 0  # 0 = unlimited
    min_samples_leaf: int = 1
    min_impurity_decrease: float = 0.0

    def __post_init__(self):
        if self.max_depth < 0 or self.min_samples_leaf < 1:
            raise ValueError("max_depth must be >= 0 and min_samples_leaf >= 1")
        if self.min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be >= 0")


@dataclass(frozen=True)
class Leaf:
    value: float  # mean response of the samples that landed here
    n: int


@dataclass(frozen=True)
class Internal:
    feature: int
    threshold: float
    decrease: float  # response-variance decrease achieved by this split
    n: int
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Internal]


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    cfg: TreeConfig = TreeConfig(),
    rng: SplitMix64 | None = None,
    n_feature_candidates: int | None = None,
    *,
    rows: Sequence[int] | None = None,
    memo: dict | None = None,
) -> TreeNode:
    """Recursive binary splitting of (X, y) by variance reduction.

    When `rng` is given and `n_feature_candidates` < feature count, each
    node searches only a freshly drawn feature subset (random-forest mode).
    Recursion is preorder (left before right) so the rng stream is
    deterministic.

    `rows` lists the training-row ids of `X` the tree grows on, in order and
    with repeats (a bootstrap sample); the default is every row once.  The
    tree equals ``build_tree(X[rows], y[rows], ...)``.

    `memo` is a dict that callers share across trees grown on the same `X`,
    `y` and `cfg`.  It maps a node's ordered row ids (plus its depth when
    `max_depth` is set) to the subtree already built from them, so trees
    that reach the same node share one frozen subtree object and the split
    kernel runs once for it.  The memo is ignored when nodes draw feature
    subsets, because such a subtree also depends on the rng stream.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, p) and y (n,) with matching n")
    if y.shape[0] == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    n_features = X.shape[1]
    m = n_feature_candidates if n_feature_candidates is not None else n_features
    if not 1 <= m <= n_features:
        raise ValueError(f"feature subsample count must be in [1, {n_features}]")
    if rows is None:
        rows = np.arange(y.shape[0], dtype=np.intp)
    else:
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu":
            raise ValueError(
                "rows must be a non-empty 1-d sequence of integer row ids"
            )
        if rows.min() < 0 or rows.max() >= y.shape[0]:
            raise ValueError(f"row ids must be in [0, {y.shape[0]})")
        rows = rows.astype(np.intp, copy=False)
    draws = rng is not None and m < n_features
    if draws:
        memo = None
    all_features = np.arange(n_features, dtype=np.int64)

    def recurse(idx: np.ndarray, depth: int) -> TreeNode:
        if memo is not None:
            key = idx.tobytes()
            if cfg.max_depth:
                key += depth.to_bytes(8, "little")
            node = memo.get(key)
            if node is None:
                node = memo[key] = grow(idx, depth)
            return node
        return grow(idx, depth)

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        ys = y[idx]
        n = idx.size
        if (
            n < 2 * cfg.min_samples_leaf
            or (cfg.max_depth and depth >= cfg.max_depth)
            or ys.min() == ys.max()
        ):
            return Leaf(value=float(ys.mean()), n=n)
        if draws:
            feats = np.asarray(rng.sample_without_replacement(n_features, m), dtype=np.int64)
        else:
            feats = all_features
        Xs = np.ascontiguousarray(X[idx])
        feat, thr, children_sse, parent_sse = best_split(
            Xs, ys, feats, cfg.min_samples_leaf
        )
        if feat < 0:
            return Leaf(value=float(ys.mean()), n=n)
        decrease = (parent_sse - children_sse) / n
        if decrease <= 0.0 or decrease < cfg.min_impurity_decrease:
            return Leaf(value=float(ys.mean()), n=n)
        mask = Xs[:, feat] <= thr
        left = recurse(idx[mask], depth + 1)
        right = recurse(idx[~mask], depth + 1)
        return Internal(
            feature=int(feat), threshold=float(thr), decrease=float(decrease),
            n=n, left=left, right=right,
        )

    try:
        return recurse(rows, 0)
    finally:
        # recurse and grow refer to each other; breaking that cycle frees
        # this call's arrays and rng now rather than at the next cyclic
        # garbage collection, which would also keep a shared memo alive.
        del recurse, grow


def fit_regression_tree(d: Dataset, cfg: TreeConfig = TreeConfig()) -> TreeNode:
    """CART regression tree over a dataset's factors, response = hardness."""
    return build_tree(d.features(), d.responses(), cfg)


def tree_arity(t: TreeNode) -> int:
    """Highest feature index referenced, +1 (0 for a bare leaf)."""
    if isinstance(t, Leaf):
        return 0
    return max(t.feature + 1, tree_arity(t.left), tree_arity(t.right))


def _route(t: TreeNode, x) -> float:
    """Leaf mean reached by `x` (<= goes left), with no bounds check."""
    while isinstance(t, Internal):
        t = t.left if x[t.feature] <= t.threshold else t.right
    return t.value


def predict_tree(t: TreeNode, x: Sequence[float]) -> float:
    """Route by threshold comparisons (<= goes left); return the leaf mean.

    Each call walks the whole tree to check `x` against every feature index
    it references.  Ensembles validate once per model instead, not once per
    tree call: `predict_ensemble` checks the vector length against the
    model's feature count, and `model_from_json` checks every split feature
    at load.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x must be a single feature vector")
    if tree_arity(t) > x.shape[0]:
        raise ValueError(
            f"feature vector has {x.shape[0]} entries but the tree "
            f"references feature index {tree_arity(t) - 1}"
        )
    return _route(t, x)


def predict_tree_many(t: TreeNode, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return np.asarray([predict_tree(t, row) for row in X])


def count_nodes(t: TreeNode) -> tuple[int, int]:
    """(internal count, leaf count)."""
    if isinstance(t, Leaf):
        return 0, 1
    il, ll = count_nodes(t.left)
    ir, lr = count_nodes(t.right)
    return il + ir + 1, ll + lr


_FMT = "%.6g"


def _node_label(t: TreeNode, feature_names: Sequence[str] | None) -> str:
    if isinstance(t, Leaf):
        return f"leaf: value={_FMT % t.value} (n={t.n})"
    name = feature_names[t.feature] if feature_names else f"x{t.feature}"
    return f"{name} <= {_FMT % t.threshold}"


def export_tree(
    t: TreeNode,
    format: str = "text",
    feature_names: Sequence[str] | None = None,
) -> str:
    """Render the tree: 'text' is an indented rule list, 'graph' a DOT
    digraph.  Ordering is deterministic (left before right)."""
    if format == "text":
        lines: list[str] = []

        def walk(node: TreeNode, indent: int):
            lines.append("  " * indent + _node_label(node, feature_names))
            if isinstance(node, Internal):
                walk(node.left, indent + 1)
                walk(node.right, indent + 1)

        walk(t, 0)
        return "\n".join(lines) + "\n"

    if format == "graph":
        lines = ["digraph tree {"]
        counter = [0]

        def walk_g(node: TreeNode) -> int:
            nid = counter[0]
            counter[0] += 1
            lines.append(f'  n{nid} [label="{_node_label(node, feature_names)}"];')
            if isinstance(node, Internal):
                left_id = walk_g(node.left)
                right_id = walk_g(node.right)
                lines.append(f"  n{nid} -> n{left_id};")
                lines.append(f"  n{nid} -> n{right_id};")
            return nid

        walk_g(t)
        lines.append("}")
        return "\n".join(lines) + "\n"

    raise ValueError(f"format must be 'text' or 'graph', got {format!r}")
