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


def _grow_levels(X, y, roots, cfg: TreeConfig, memo: dict) -> None:
    """Put into `memo` the tree of every row-id array in `roots`, grown
    level by level with every feature searched at each node.

    Keys come from `_memo_key`; this is the only function that writes a
    memo, and `build_tree` reads its roots back from it.  Each level's
    distinct nodes not yet in the memo are grouped by size, and each group
    is scored in one `best_splits` call; split nodes are frozen afterwards
    by ascending size, children first.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    features = np.arange(X.shape[1], dtype=np.int64)
    width = np.dtype(np.intp).itemsize
    seen = set()
    splits = []  # (n, key, feature, threshold, decrease, left key, right key)

    def enqueue(pending: dict, rb: bytes, depth: int) -> bytes:
        key = _memo_key(rb, depth, cfg)
        if key not in memo and key not in seen:
            seen.add(key)
            pending.setdefault(len(rb) // width, []).append(rb)
        return key

    level: dict[int, list[bytes]] = {}  # node size -> each node's row ids
    for rows in roots:
        enqueue(level, np.asarray(rows, dtype=np.intp).tobytes(), 0)
    depth = 0
    while level:
        below: dict[int, list[bytes]] = {}
        for n, group in level.items():
            rows = np.frombuffer(b"".join(group), dtype=np.intp).reshape(-1, n)
            keys = [_memo_key(rb, depth, cfg) for rb in group]
            yb = y[rows]
            leaf = _is_leaf(cfg, n, depth, yb.min(axis=1) == yb.max(axis=1))
            at = np.flatnonzero(~leaf)
            if at.size:
                Xb = X[rows[at]]
                feat, thr, children_sse, parent_sse = best_splits(
                    Xb, yb[at], features, cfg.min_samples_leaf
                )
                decrease = (parent_sse - children_sse) / n
                keep = ~_is_leaf(cfg, n, depth, False, feat, decrease)
                leaf[at[~keep]] = True
                at, Xb, feat, thr = at[keep], Xb[keep], feat[keep], thr[keep]
                # Each node's rows, stably partitioned: the left (<= thr) first.
                goes_left = Xb[np.arange(at.size), :, feat] <= thr[:, None]
                order = np.argsort(~goes_left, axis=1, kind="stable")
                parted = np.take_along_axis(rows[at], order, axis=1).tobytes()
                stride = n * width
                for start, cut, b, f, t, dec in zip(
                    range(0, len(parted), stride),
                    (goes_left.sum(axis=1) * width).tolist(), at.tolist(),
                    feat.tolist(), thr.tolist(), decrease[keep].tolist(),
                ):
                    left = parted[start:start + cut]
                    right = parted[start + cut:start + stride]
                    lkey = enqueue(below, left, depth + 1)
                    rkey = enqueue(below, right, depth + 1)
                    splits.append((n, keys[b], f, t, dec, lkey, rkey))
            for b in np.flatnonzero(leaf).tolist():
                memo[keys[b]] = Leaf(value=float(yb[b].mean()), n=n)
        level = below
        depth += 1
    splits.sort(key=lambda s: s[0])
    for n, key, f, t, dec, lkey, rkey in splits:
        memo[key] = Internal(
            feature=f, threshold=t, decrease=dec, n=n,
            left=memo[lkey], right=memo[rkey],
        )


# Padded node rows (nodes x rows of the largest node) of one `best_splits`
# call in `_grow_lockstep`: about the largest call `_grow_levels` makes
# (200 roots of 9 runs), so scoring every forest of a call together keeps
# peak memory where the all-feature path already has it.
_LOCKSTEP_ROWS = 2048


def _grow_lockstep(X, y, roots, rngs, m: int, cfg: TreeConfig) -> list[TreeNode]:
    """The tree of every row-id array in `roots`, each node searching `m`
    features drawn from the matching SplitMix64 of `rngs`; the trees grow
    in lockstep.

    Tree t equals ``build_tree(X[roots[t]], y[roots[t]], cfg, rngs[t], m)``.
    Each tree pops its nodes from its own stack in preorder, so its draws
    come in the recursion's order: a node that a pre-score leaf rule makes
    a leaf draws nothing, and the first node that needs a split draws its
    subset and waits.  The trees advance in rounds.  A round takes every
    waiting node (at most one per tree), sorts them by falling size and
    scores them in `best_splits` calls of at most `_LOCKSTEP_ROWS` padded
    rows, each node padded to the largest of its call.  One stable
    partition per call gives every child its row ids, and masked minima
    and maxima its constant-response flag.  A split node pushes its right
    child, then its left, and every scored node's tree pops on at once, up
    to its next waiting node.  Trees are assembled children first: a split
    becomes an `Internal` once its right subtree is done, so, as in the
    recursion, only each tree's open splits are held.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    p = X.shape[1]
    # Row id `pad` is the kernel's pad row: X = +inf sorts last, y = 0.
    pad = y.shape[0]
    Xp = np.vstack((X, np.full((1, p), np.inf)))
    yp = np.append(y, 0.0)
    trees: list = [None] * len(roots)
    # Each stack entry is (row ids, depth, parent, constant response); a
    # parent is the list [n, feature, threshold, decrease, left subtree or
    # None, its parent].
    stacks = []
    for rows in roots:
        rows = np.asarray(rows, dtype=np.intp)
        ys = y[rows]
        stacks.append([(rows, 0, None, bool(ys.min() == ys.max()))])
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

    def leaf(idx: np.ndarray) -> Leaf:
        # ys.mean() bit for bit: numpy divides this same pairwise sum by n.
        # `np.add.reduce` is what `ndarray.sum` calls, minus its wrapper.
        return Leaf(value=float(np.add.reduce(y[idx])) / idx.size, n=idx.size)

    def all_equal(ys: np.ndarray, mask: np.ndarray) -> np.ndarray:
        # Per row of `ys`: do its values under `mask` all equal?
        return (np.where(mask, ys, np.inf).min(axis=1)
                == np.where(mask, ys, -np.inf).max(axis=1))

    def advance(t: int) -> None:
        stack = stacks[t]
        while stack:
            idx, depth, parent, constant = stack.pop()
            if _is_leaf(cfg, idx.size, depth, constant):
                place(t, leaf(idx), parent)
                continue
            subset = rngs[t].sample_without_replacement(p, m)
            waiting.append((t, idx, depth, parent, subset))
            return

    for t in range(len(roots)):
        advance(t)
    while waiting:
        batch = sorted(waiting, key=lambda node: node[1].size, reverse=True)
        waiting.clear()
        start = 0
        while start < len(batch):
            width = batch[start][1].size
            chunk = batch[start:start + max(1, _LOCKSTEP_ROWS // width)]
            start += len(chunk)
            sizes = np.array([node[1].size for node in chunk])
            col = np.arange(width)
            rows = np.full((len(chunk), width), pad)
            rows[col < sizes[:, None]] = np.concatenate([node[1] for node in chunk])
            Xb = Xp.take(rows, axis=0)
            yb = yp.take(rows)
            feat, thr, children_sse, parent_sse = best_splits(
                Xb, yb, np.array([node[4] for node in chunk], dtype=np.int64),
                cfg.min_samples_leaf, sizes,
            )
            decrease = (parent_sse - children_sse) / sizes
            # Every waiting node passed the depth rule before scoring.
            is_leaf = _is_leaf(cfg, sizes, 0, False, feat, decrease)
            # Each node's rows, stably partitioned: the left (<= thr) first,
            # then the right, then the pads (+inf goes right).
            goes_left = Xb[np.arange(len(chunk)), :, feat] <= thr[:, None]
            order = np.argsort(~goes_left, axis=1, kind="stable")
            # rows[b, order[b]] for every b, as one flat gather.
            parted = rows.take(order + width * np.arange(len(chunk))[:, None])
            ys = yp.take(parted)
            n_left = goes_left.sum(axis=1)
            in_left = col < n_left[:, None]
            const_left = all_equal(ys, in_left)
            const_right = all_equal(ys, ~in_left & (col < sizes[:, None]))
            for (t, idx, depth, parent, _), part, n, nl, stop, f, th, dec, cl, cr in zip(
                chunk, parted, sizes.tolist(), n_left.tolist(), is_leaf.tolist(),
                feat.tolist(), thr.tolist(), decrease.tolist(),
                const_left.tolist(), const_right.tolist(),
            ):
                if stop:
                    place(t, leaf(idx), parent)
                else:
                    # Copies, so that no child keeps the chunk's array alive.
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
