"""Purity measures and a CART regression tree with deterministic splits.

The purity toolbox (entropy, information gain, gain ratio, Gini) scores
class distributions; the regression tree itself splits on weighted child
response variance (the CART regression criterion).  SplitInfo carries the
standard sign, -sum(w * log2 w), so gain ratio is nonnegative.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from ._rng import SplitMix64
from .dataset import Dataset
from .kernels import best_split, best_splits


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


def _set_int_fields(obj, names: Sequence[str]) -> None:
    """Check that each field named in `names` of the frozen dataclass `obj`
    holds a Python or numpy integer (not a bool), raising a ValueError that
    names the field; a numpy integer is stored as an int, so JSON can
    write it."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))


def _check_real_fields(obj, names: Sequence[str]) -> None:
    """Check that each field named in `names` of the frozen dataclass `obj`
    holds a real number (a Python or numpy int or float, not a bool),
    raising a ValueError that names the field; a numpy number is stored as
    the Python int or float it holds, so JSON can write it."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        if isinstance(value, np.generic):
            object.__setattr__(obj, name, value.item())


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 0  # 0 = unlimited
    min_samples_leaf: int = 1
    min_impurity_decrease: float = 0.0

    def __post_init__(self):
        _set_int_fields(self, ("max_depth", "min_samples_leaf"))
        _check_real_fields(self, ("min_impurity_decrease",))
        if self.max_depth < 0 or self.min_samples_leaf < 1:
            raise ValueError("max_depth must be >= 0 and min_samples_leaf >= 1")
        if not self.min_impurity_decrease >= 0.0:
            raise ValueError("min_impurity_decrease must be >= 0")


@dataclass(frozen=True, slots=True)
class Leaf:
    value: float  # mean response of the samples that landed here
    n: int


@dataclass(frozen=True, slots=True)
class Internal:
    feature: int
    threshold: float
    decrease: float  # response-variance decrease achieved by this split
    n: int
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Internal]


def _is_leaf(cfg, n, depth, constant, feat=0, decrease=np.inf):
    """CART's leaf rules, on scalars or elementwise over arrays.

    A node of `n` rows at `depth` is a leaf when it has fewer than
    2 * min_samples_leaf rows, reaches max_depth, or has a `constant`
    response; once scored, also when its best split has feature -1 (none
    admissible) or a variance `decrease` <= 0 or below
    min_impurity_decrease.  The defaults stand for a node not yet scored.
    """
    return (
        (n < 2 * cfg.min_samples_leaf)
        | bool(cfg.max_depth and depth >= cfg.max_depth)
        | constant
        | (feat < 0)
        | (decrease <= 0.0)
        | (decrease < cfg.min_impurity_decrease)
    )


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
    kernel runs once for it.  A tree with a memo is grown into it by
    `_grow_levels` (unless its root is there already) and read back from
    it.  The memo is ignored when nodes draw feature subsets, because such
    a subtree also depends on the rng stream.
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
    if memo is not None and not draws:
        key = _memo_key(rows.tobytes(), 0, cfg)
        if key not in memo:
            _grow_levels(X, y, [rows], cfg, memo)
        return memo[key]
    all_features = np.arange(n_features, dtype=np.int64)

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        ys = y[idx]
        n = idx.size
        # A single row is constant: skip its min and max.  A Python bool
        # keeps `_is_leaf` off numpy scalar operators, ~1 us each.
        if _is_leaf(cfg, n, depth, n == 1 or bool(ys.min() == ys.max())):
            return Leaf(value=float(ys.mean()), n=n)
        if draws:
            feats = np.asarray(rng.sample_without_replacement(n_features, m), dtype=np.int64)
        else:
            feats = all_features
        Xs = np.ascontiguousarray(X[idx])
        feat, thr, children_sse, parent_sse = best_split(
            Xs, ys, feats, cfg.min_samples_leaf
        )
        decrease = (parent_sse - children_sse) / n
        if _is_leaf(cfg, n, depth, False, feat, decrease):
            return Leaf(value=float(ys.mean()), n=n)
        mask = Xs[:, feat] <= thr
        left = grow(idx[mask], depth + 1)
        right = grow(idx[~mask], depth + 1)
        return Internal(
            feature=int(feat), threshold=float(thr), decrease=float(decrease),
            n=n, left=left, right=right,
        )

    try:
        return grow(rows, 0)
    finally:
        # grow refers to itself; breaking that cycle frees this call's
        # arrays and rng now rather than at the next cyclic collection.
        del grow


def _memo_key(rows: bytes, depth: int, cfg: TreeConfig) -> bytes:
    """Memo key of the node grown from the row ids `rows` (as `np.intp`
    bytes) at `depth`; the depth counts only under a depth limit."""
    return rows + depth.to_bytes(8, "little") if cfg.max_depth else rows


# --- batched growth -------------------------------------------------------
# Padded rows (nodes x the largest node's rows) of one `best_splits` call:
# about a default forest's 200 roots of 9 runs, so calls stay few and small.
_CALL_ROWS = 2048


def _padded(X, y):
    """X and y as float64 with the pad row, id ``len(y)``, appended.

    The batched growers score nodes of mixed sizes in one `best_splits`
    call, each padded on the right to the largest with the pad row: X =
    +inf, which a stable sort puts last, and y = 0.  `best_splits` reads
    each node's totals at its last real row and masks every cut past it,
    so each node equals `best_split` on its own rows, bit for bit.
    """
    return np.vstack((X, np.full((1, X.shape[1]), np.inf))), np.append(y, 0.0)


def _pack(yp, idxs, sizes):
    """The row-id arrays `idxs`, of `sizes`, as rows of one array padded to
    the largest, and the mask of their real cells."""
    real = np.arange(sizes.max()) < sizes[:, None]
    rows = np.full(real.shape, yp.size - 1)
    rows[real] = np.concatenate(idxs)
    return rows, real


def _all_equal(ys, mask):
    """Per row of `ys`: do its values under `mask` all equal?"""
    return (np.where(mask, ys, np.inf).min(axis=1)
            == np.where(mask, ys, -np.inf).max(axis=1))


def _roots(yp, roots):
    """`roots` as row-id arrays, and whether each has a constant response."""
    roots = [np.asarray(rows, dtype=np.intp) for rows in roots]
    rows, real = _pack(yp, roots, np.array([idx.size for idx in roots]))
    return zip(roots, _all_equal(yp.take(rows), real).tolist())


def _split_calls(Xp, yp, nodes, idxs, features, cfg: TreeConfig):
    """Score `nodes`, of row ids `idxs` and falling size, that passed the
    pre-score leaf rules, in calls of at most `_CALL_ROWS` padded rows;
    `features` is as for `best_splits`.  Yields, per call, its nodes zipped
    with their row ids stably partitioned (left, <= threshold, then right,
    then pads), leaf flags, features, thresholds, decreases, left sizes and
    whether each child has a constant response."""
    sizes = np.array([idx.size for idx in idxs])
    start = 0
    while start < len(idxs):
        stop = start + max(1, _CALL_ROWS // sizes[start])
        n = sizes[start:stop]
        rows, real = _pack(yp, idxs[start:stop], n)
        B, width = rows.shape
        Xb = Xp.take(rows, axis=0)
        feat, thr, children_sse, parent_sse = best_splits(
            Xb, yp.take(rows), features if features.ndim == 1
            else features[start:stop], cfg.min_samples_leaf, n,
        )
        decrease = (parent_sse - children_sse) / n
        # Every node passed the depth rule before scoring.
        leaf = _is_leaf(cfg, n, 0, False, feat, decrease)
        goes_left = Xb[np.arange(B), :, feat] <= thr[:, None]
        order = np.argsort(~goes_left, axis=1, kind="stable")
        # rows[b, order[b]] for every b, as one flat gather.
        parted = rows.take(order + width * np.arange(B)[:, None])
        n_left = goes_left.sum(axis=1)
        in_left = np.arange(width) < n_left[:, None]
        ys = yp.take(parted)
        yield zip(nodes[start:stop], parted, leaf.tolist(), feat.tolist(),
                  thr.tolist(), decrease.tolist(), n_left.tolist(),
                  _all_equal(ys, in_left).tolist(),
                  _all_equal(ys, ~in_left & real).tolist())
        start = stop


def _leaf(y, idx) -> Leaf:
    """The leaf of rows `idx`, valued ``y[idx].mean()`` bit for bit: numpy
    divides this pairwise sum by n (`np.add.reduce` skips `sum`'s wrapper)."""
    return Leaf(value=float(np.add.reduce(y[idx])) / idx.size, n=idx.size)


def _grow_levels(X, y, roots, cfg: TreeConfig, memo: dict) -> None:
    """Put into `memo` the tree of every row-id array in `roots`, grown
    level by level with every feature searched at each node.

    Keys come from `_memo_key`; this is the only function that writes a
    memo, and `build_tree` reads its roots back from it.  A new node that a
    pre-score leaf rule makes a leaf enters the memo at once; `_split_calls`
    scores each level's other distinct new nodes, sorted by falling size.
    Split nodes are frozen afterwards by ascending size, children first.
    """
    Xp, yp = _padded(X, y)
    features = np.arange(X.shape[1], dtype=np.int64)
    seen = set()
    splits = []  # (n, key, feature, threshold, decrease, left key, right key)

    def enqueue(pending: list, idx, depth: int, constant: bool) -> bytes:
        key = _memo_key(idx.tobytes(), depth, cfg)
        if key not in memo and key not in seen:
            if _is_leaf(cfg, idx.size, depth, constant):
                memo[key] = _leaf(yp, idx)
            else:
                seen.add(key)
                pending.append((idx, key))
        return key

    level: list = []  # (row ids, key) of each node of this depth to score
    for rows, constant in _roots(yp, roots):
        enqueue(level, rows, 0, constant)
    depth = 0
    while level:
        below: list = []
        level.sort(key=lambda node: node[0].size, reverse=True)
        for call in _split_calls(Xp, yp, level, [idx for idx, _ in level],
                                 features, cfg):
            for (idx, key), part, leaf, f, t, dec, nl, cl, cr in call:
                if leaf:
                    memo[key] = _leaf(yp, idx)
                    continue
                lkey = enqueue(below, part[:nl], depth + 1, cl)
                rkey = enqueue(below, part[nl:idx.size], depth + 1, cr)
                splits.append((idx.size, key, f, t, dec, lkey, rkey))
        level = below
        depth += 1
    splits.sort(key=lambda s: s[0])
    for n, key, f, t, dec, lkey, rkey in splits:
        memo[key] = Internal(
            feature=f, threshold=t, decrease=dec, n=n,
            left=memo[lkey], right=memo[rkey],
        )


def _grow_lockstep(X, y, roots, rngs, m: int, cfg: TreeConfig) -> list[TreeNode]:
    """The tree of every row-id array in `roots`, each node searching `m`
    features drawn from the matching SplitMix64 of `rngs`; the trees grow
    in lockstep.

    Tree t equals ``build_tree(X[roots[t]], y[roots[t]], cfg, rngs[t], m)``.
    Each tree pops its nodes from its own stack in preorder, so its draws
    come in the recursion's order: a node that a pre-score leaf rule makes
    a leaf draws nothing, and the first node that needs a split draws its
    subset and waits.  Each round scores every waiting node (at most one
    per tree), sorted by falling size, by `_split_calls`.  A split node
    pushes its right child, then its left, and every scored node's tree
    pops on at once, up to its next waiting node.  A split becomes an
    `Internal` once its right subtree is done, so, as in the recursion,
    only each tree's open splits are held.
    """
    Xp, yp = _padded(X, y)
    p = X.shape[1]
    trees: list = [None] * len(roots)
    # Each stack entry is (row ids, depth, parent, constant response); a
    # parent is the list [n, feature, threshold, decrease, left subtree or
    # None, its parent].
    stacks = [[(rows, 0, None, constant)] for rows, constant in _roots(yp, roots)]
    waiting = []  # (tree, rows, depth, parent, subset)

    def place(t: int, node: TreeNode, parent) -> None:
        # Preorder finishes a left subtree first; its right sibling then
        # completes the parent, and so on up the tree.
        while parent is not None:
            if parent[4] is None:
                parent[4] = node
                return
            n, f, th, dec, left, parent = parent
            node = Internal(feature=f, threshold=th, decrease=dec, n=n,
                            left=left, right=node)
        trees[t] = node

    def advance(t: int) -> None:
        stack = stacks[t]
        while stack:
            idx, depth, parent, constant = stack.pop()
            if _is_leaf(cfg, idx.size, depth, constant):
                place(t, _leaf(yp, idx), parent)
                continue
            subset = rngs[t].sample_without_replacement(p, m)
            waiting.append((t, idx, depth, parent, subset))
            return

    for t in range(len(roots)):
        advance(t)
    while waiting:
        batch = sorted(waiting, key=lambda node: node[1].size, reverse=True)
        waiting.clear()
        for call in _split_calls(
            Xp, yp, batch, [node[1] for node in batch],
            np.array([node[4] for node in batch], dtype=np.int64), cfg,
        ):
            for (t, idx, depth, parent, _), part, leaf, f, th, dec, nl, cl, cr in call:
                if leaf:
                    place(t, _leaf(yp, idx), parent)
                else:
                    # Copies, so that no child keeps the call's array alive.
                    n = idx.size
                    split = [n, f, th, dec, None, parent]
                    stacks[t] += ((part[nl:n].copy(), depth + 1, split, cr),
                                  (part[:nl].copy(), depth + 1, split, cl))
                advance(t)
    return trees


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
    arity = tree_arity(t)
    if arity > x.shape[0]:
        raise ValueError(
            f"feature vector has {x.shape[0]} entries but the tree "
            f"references feature index {arity - 1}"
        )
    return _route(t, x)


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
