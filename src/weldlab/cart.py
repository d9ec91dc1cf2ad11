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
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from ._rng import SplitMix64, lane_subsets
from .dataset import Dataset, _check_fields, _integer, _real
# Unused `best_split` stays bound: perfbench's tracer wraps `weldlab.cart.best_split`.
from .kernels import _best_split_loops, best_split, best_splits  # noqa: F401


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
        _check_fields(self, _integer, ("max_depth", "min_samples_leaf"))
        _check_fields(self, _real, ("min_impurity_decrease",))
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
        | ((depth >= cfg.max_depth) if cfg.max_depth else False)
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

    When `n_feature_candidates` < feature count, each node searches only a
    feature subset freshly drawn from `rng` (random-forest mode), which
    must then be given.  Recursion is preorder (left before right) so the
    rng stream is deterministic.  A node is a list of row ids into lists
    of `X` and `y`; a leaf's value is ``np.add.reduce(ys) / n``.

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
    if m < n_features and rng is None:
        raise ValueError("drawing a feature subset per node needs an rng")
    if rows is None:
        rows = np.arange(y.shape[0], dtype=np.intp)
    else:
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu":
            raise ValueError(
                "rows must be a non-empty 1-d sequence of integer row ids"
            )
        rows = rows.astype(np.intp, copy=False)
        # A negative id reads as a huge unsigned one.
        if rows.view(np.uintp).max() >= y.shape[0]:
            raise ValueError(f"row ids must be in [0, {y.shape[0]})")
    draws = m < n_features
    if memo is not None and not draws:
        key = _memo_key(rows.tobytes(), 0, cfg)
        if key not in memo:
            _grow_levels(X, y, [rows], cfg, memo)
        return memo[key]
    Xl, yl = X.tolist(), y.tolist()
    features = range(n_features)

    def grow(idx: list, depth: int) -> TreeNode:
        n = len(idx)
        ys = [yl[i] for i in idx]
        if not _is_leaf(cfg, n, depth, min(ys) == max(ys)):
            feats = rng.sample_without_replacement(n_features, m) if draws else features
            feat, thr, children_sse, parent_sse = _best_split_loops(
                [Xl[i] for i in idx], ys, feats, cfg.min_samples_leaf)
            decrease = (parent_sse - children_sse) / n
            if not _is_leaf(cfg, n, depth, False, feat, decrease):
                left = grow([i for i in idx if Xl[i][feat] <= thr], depth + 1)
                right = grow([i for i in idx if not Xl[i][feat] <= thr], depth + 1)
                return Internal(feat, thr, decrease, n, left, right)
        # numpy's pairwise sum, as `y[idx].mean()` takes: Python's `sum`
        # adds in sequence, which rounds differently from 8 rows up.
        return Leaf(float(np.add.reduce(ys) / n), n)

    try:
        return grow(rows.tolist(), 0)
    finally:
        # grow refers to itself; breaking that cycle frees this call's
        # lists and rng now rather than at the next cyclic collection.
        del grow


def _memo_key(rows: bytes, depth: int, cfg: TreeConfig) -> bytes:
    """Memo key of the node grown from the row ids `rows` (as `np.intp`
    bytes) at `depth`; the depth counts only under a depth limit."""
    return rows + depth.to_bytes(8, "little") if cfg.max_depth else rows


# --- batched growth -------------------------------------------------------
# Padded rows (nodes x the largest node's rows) of one `best_splits` call:
# about a default forest's 200 roots of 9 runs, so calls stay few and small.
_CALL_ROWS = 2048
# Node records that `_build_trees` turns into Python values at a time.
_BUILD_BLOCK = 256


def _padded(X, y):
    """X and y as float64 with the pad row, id ``len(y)``, appended.

    The batched growers score nodes of mixed sizes in one `best_splits`
    call, each padded on the right to the largest with the pad row: X =
    +inf, which a stable sort puts last, and y = 0.  `best_splits` reads
    each node's totals at its last real row and masks every cut past it,
    so each node equals `best_split` on its own rows, bit for bit.
    """
    return np.vstack((X, np.full((1, X.shape[1]), np.inf))), np.append(y, 0.0)


def _all_equal(ys, mask):
    """Per row of `ys`: do its values under `mask` all equal?"""
    return (np.where(mask, ys, np.inf).min(axis=1)
            == np.where(mask, ys, -np.inf).max(axis=1))


def _gather(yp, buf, start, size):
    """The row ids ``buf[start[i]:start[i] + size[i]]`` of each node i as
    rows of one array padded to the largest with the pad row: each cell's
    position in `buf`, the mask of real cells, and the row ids."""
    ar = np.arange(size.max())
    at = start[:, None] + ar
    real = ar < size[:, None]
    # Positions past a node's slice (they may pass the buffer's end) read
    # the pad row instead.
    return at, real, np.where(real, buf.take(at, mode="clip"), yp.size - 1)


def _roots(yp, roots):
    """One buffer of the row ids of every root in `roots`, a list of
    (roots x n) blocks of row ids, each root's start and size in it, and
    whether each has a constant response.  A 1-d array is a block of one
    root."""
    roots = [np.atleast_2d(np.asarray(block, dtype=np.intp)) for block in roots]
    size = np.concatenate([np.full(len(block), block.shape[1], np.intp)
                           for block in roots])
    buf = np.concatenate([block.ravel() for block in roots])
    start = np.cumsum(size) - size
    _, real, rows = _gather(yp, buf, start, size)
    return buf, start, size, _all_equal(yp.take(rows), real)


def _by_size(sizes):
    """Each distinct value s of `sizes`, ascending, and where it occurs."""
    order = np.argsort(sizes, kind="stable")
    counts = np.bincount(sizes)
    ends = np.cumsum(counts)
    for s in np.flatnonzero(counts).tolist():
        yield s, order[ends[s] - counts[s]:ends[s]]


def _calls(sizes):
    """(start, stop) of each kernel call over nodes of `sizes`, falling: at
    most `_CALL_ROWS` padded rows (nodes x the first node's size) each."""
    start = 0
    while start < len(sizes):
        stop = start + max(1, _CALL_ROWS // int(sizes[start]))
        yield start, stop
        start = stop


def _split(Xp, yp, buf, start, size, features, cfg: TreeConfig):
    """Score each node i, whose row ids are ``buf[start[i]:start[i] +
    size[i]]`` and which passed the pre-score leaf rules, over the ascending
    feature row ``features[i]``.

    The nodes are scored by falling size in `best_splits` calls of at most
    `_CALL_ROWS` padded rows.  A node that a post-score leaf rule makes a
    leaf keeps its slice as it was; a split node's slice is stably
    partitioned in place, its rows <= the threshold first.  Returns, per
    node in the given order, its feature (-1 for a leaf), threshold,
    decrease and left size, and whether each child (left, right) has a
    constant response.
    """
    feat = np.empty(size.size, np.int64)
    thr = np.empty(size.size)
    decrease = np.empty(size.size)
    n_left = np.empty(size.size, np.intp)
    constant = np.empty((size.size, 2), bool)
    by_size = np.argsort(-size, kind="stable")
    for i, j in _calls(size[by_size]):
        ids = by_size[i:j]
        n = size[ids]
        at, real, rows = _gather(yp, buf, start[ids], n)
        B, width = rows.shape
        Xb = Xp.take(rows, axis=0)
        f, t, children_sse, parent_sse = best_splits(
            Xb, yp.take(rows), features[ids], cfg.min_samples_leaf, n)
        dec = (parent_sse - children_sse) / n
        # Every node passed the depth rule before scoring.
        leaf = _is_leaf(cfg, n, 0, False, f, dec)
        goes_left = Xb[np.arange(B), :, f] <= t[:, None]
        order = np.argsort(~goes_left, axis=1, kind="stable")
        # rows[b, order[b]] for every b, as one flat gather.
        parted = rows.take(order + width * np.arange(B)[:, None])
        keep = real & ~leaf[:, None]
        buf[at[keep]] = parted[keep]
        nl = goes_left.sum(axis=1)
        in_left = np.arange(width) < nl[:, None]
        ys = yp.take(parted)
        feat[ids] = np.where(leaf, -1, f)
        thr[ids], decrease[ids], n_left[ids] = t, dec, nl
        constant[ids, 0] = _all_equal(ys, in_left)
        constant[ids, 1] = _all_equal(ys, ~in_left & real)
    return feat, thr, decrease, n_left, constant


def _grow_levels(X, y, roots, cfg: TreeConfig, memo: dict) -> None:
    """Put into `memo` the tree of every root in `roots` (row-id blocks, see
    `_roots`), all grown in one pass, level by level, every node searching
    every feature.

    Keys come from `_memo_key`; this is the only function that writes a
    memo, and `build_tree` reads its roots back from it.  A node's row ids
    are a slice of one buffer of every root's ids.  In the pass a distinct
    node is an integer id: a level keys its nodes one size at a time, from a
    byte view of their (nodes, size) block of row ids, and looks each key up
    in a key -> id dict.  The level's new nodes pass the pre-score leaf
    rules in one array step; `_split` scores the others, all searching one
    read-only row of every feature, and partitions their slices into their
    children's.  No slice changes once its node is a leaf, so one
    `_leaf_values` call values every leaf at the end; then the splits,
    recorded as per-level arrays of ids, become `Internal` objects by
    ascending size, children first.  Only then does `memo` change.
    """
    Xp, yp = _padded(X, y)
    buf, start, size, constant = _roots(yp, roots)
    features = np.arange(X.shape[1], dtype=np.int64)
    ids: dict = {}  # key -> id of each distinct node, from 0
    built: list = []  # by id: the memo's node, else None until built
    leaves, splits = [], []  # per level: arrays of the new leaves, splits

    def identify(start, size, depth: int):
        """The id of each node of `depth` at ``buf[start[i]:start[i] +
        size[i]]``, and whether it is new: seen neither in this pass nor
        in the memo."""
        node = np.empty(size.size, np.intp)
        new = np.zeros(size.size, bool)
        suffix = np.frombuffer(_memo_key(b"", depth, cfg), np.uint8)
        for s, group in _by_size(size):
            block = np.hstack((
                buf.take(start[group][:, None] + np.arange(s)).view(np.uint8),
                np.broadcast_to(suffix, (group.size, suffix.size))))
            got, fresh = [], []
            keys = block.view((np.void, block.shape[1])).ravel().tolist()
            for j, key in enumerate(keys):
                i = ids.setdefault(key, len(built))
                if i == len(built):
                    built.append(memo.get(key))
                    if built[i] is None:
                        fresh.append(j)
                got.append(i)
            node[group] = got
            new[group[fresh]] = True
        return node, new

    node, new = identify(start, size, 0)
    depth = 0
    while node.size:
        leaf = new & _is_leaf(cfg, size, depth, constant)
        leaves.append((node[leaf], start[leaf], size[leaf]))
        todo = np.flatnonzero(new & ~leaf)
        node, start, size = node[todo], start[todo], size[todo]
        feat, thr, dec, n_left, kid_constant = _split(
            Xp, yp, buf, start, size,
            np.broadcast_to(features, (size.size, features.size)), cfg)
        leaf = feat < 0
        leaves.append((node[leaf], start[leaf], size[leaf]))
        split = ~leaf
        n, n_left = size[split], n_left[split]
        # Each split's children, left then right, in its slice.
        start = np.stack((start[split], start[split] + n_left), axis=1).ravel()
        size = np.stack((n_left, n - n_left), axis=1).ravel()
        depth += 1
        kids, new = identify(start, size, depth)
        splits.append((node[split], n, feat[split], thr[split], dec[split],
                       kids[::2], kids[1::2]))
        node, constant = kids, kid_constant[split].ravel()
    leaf, at, n = map(np.concatenate, zip(*leaves))
    for i, rows_n, value in zip(leaf.tolist(), n.tolist(),
                                _leaf_values(yp, buf, at, n).tolist()):
        built[i] = Leaf(value, rows_n)
    splits = [np.concatenate(col) for col in zip(*splits)]
    order = np.argsort(splits[1], kind="stable")
    for lo in range(0, order.size, _BUILD_BLOCK):
        block = order[lo:lo + _BUILD_BLOCK]
        for i, rows_n, f, t, dec, left, right in zip(
                *(col[block].tolist() for col in splits)):
            built[i] = Internal(f, t, dec, rows_n, built[left], built[right])
    del splits, order, buf  # not alive while the memo grows
    memo.update(zip(ids, built))


def _leaf_values(y, rows, starts, sizes) -> np.ndarray:
    """Value of each leaf whose row ids are ``rows[starts[i]:starts[i] +
    sizes[i]]``, equal bit for bit to the recursion's ``np.add.reduce(ys) /
    n`` of the leaf's n responses `ys`.

    The leaves of each size s are valued together: one ``np.add.reduce``
    along the rows of their (leaves, s) block of responses runs numpy's
    pairwise sum over each C-contiguous row, as it does over the
    recursion's one list, and divides by s.
    """
    values = np.empty(sizes.size)
    for s, group in _by_size(sizes):
        block = y.take(rows.take(starts[group][:, None] + np.arange(s)))
        values[group] = np.add.reduce(block, axis=1) / s
    return values


class _Records(NamedTuple):
    """Flat node records of the trees `_grow_lockstep` grows.

    Tree t's root is node t, and node i belongs to tree ``tree[i]``.  Node i
    is a leaf of value ``value[i]`` when ``feature[i]`` is -1; otherwise it
    splits on ``X[:, feature[i]] <= threshold[i]``, with its left child at
    ``child[i]`` and its right one at ``child[i] + 1``.  A child's id is
    larger than its parent's.  `n` and `decrease` are those of the built
    node; `threshold`, `decrease` and `child` mean nothing on a leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    decrease: np.ndarray
    n: np.ndarray
    child: np.ndarray
    value: np.ndarray
    tree: np.ndarray


def _grow_lockstep(X, y, roots, lanes, m: int, cfg: TreeConfig) -> _Records:
    """The records of the tree of every row-id array in `roots`, each node
    searching `m` features drawn from the matching lane of `lanes`; the
    trees grow in lockstep.

    `lanes` is a ``uint64`` array of SplitMix64 states (see `_rng`), one per
    tree, advanced in place: tree t, built by `_build_trees`, equals
    ``build_tree(X[roots[t]], y[roots[t]], cfg, SplitMix64(lanes[t]), m)``,
    and lane t ends in that rng's final state.  Each tree visits its nodes
    in preorder from its own stack, so its draws come in the recursion's
    order: a node that a pre-score leaf rule makes a leaf draws nothing,
    and only nodes that need a split are stacked.  Each round every tree
    pops one node; the round draws all their subsets at once
    (`lane_subsets`) and `_split` scores them, each with its own subset.

    A node's row ids are a slice of one buffer of every root's ids
    (`_roots`), and `_split` partitions a split node's slice in place, left
    rows first, so each leaf's slice holds its rows in the recursion's
    order.  A split's children are the next two node ids.  Leaf values
    come from `_leaf_values`.
    """
    Xp, yp = _padded(X, y)
    buf, root_start, sizes, constant = _roots(yp, roots)
    T = sizes.size
    # Node records, grown as needed.  A split's children are the next two
    # free ids, left first, so `child` holds the left one.
    cap = buf.size
    start = np.empty(cap, np.intp)  # of the node's slice of `buf`
    n = np.empty(cap, np.intp)
    depth = np.empty(cap, np.intp)
    feature = np.empty(cap, np.int64)  # -1 marks a leaf
    threshold = np.empty(cap)
    decrease = np.empty(cap)
    child = np.empty(cap, np.intp)
    tree = np.empty(cap, np.intp)
    start[:T] = root_start
    n[:T] = sizes
    depth[:T] = 0
    tree[:T] = np.arange(T)
    count = T
    # Each tree's stack of the nodes it has yet to score, which are at
    # most one per depth below the root, plus the two just pushed.
    stack = np.empty((T, sizes.max() + 2), np.intp)
    top = np.zeros(T, np.intp)

    def add(ids, constant):
        """Apply the pre-score leaf rules to the new nodes `ids`; return
        which of them need a split."""
        leaf = _is_leaf(cfg, n[ids], depth[ids], constant)
        feature[ids[leaf]] = -1
        return ~leaf

    trees = np.flatnonzero(add(np.arange(T), constant))
    nodes = trees  # each tree's node to score this round
    while trees.size:
        size = n[nodes]
        (feature[nodes], threshold[nodes], decrease[nodes], n_left,
         kid_constant) = _split(Xp, yp, buf, start[nodes], size,
                                lane_subsets(lanes, trees, X.shape[1], m), cfg)
        split = feature[nodes] >= 0
        parent, trees_split = nodes[split], trees[split]
        kids = count + np.arange(2 * parent.size)
        count += kids.size
        if count > cap:
            cap = 2 * count
            start, n, depth, feature, threshold, decrease, child, tree = (
                np.concatenate((col, np.empty(cap - col.size, col.dtype)))
                for col in (start, n, depth, feature, threshold, decrease,
                            child, tree))
        left, right = kids[::2], kids[1::2]
        child[parent] = left
        start[left] = start[parent]
        start[right] = start[parent] + n_left[split]
        n[left] = n_left[split]
        n[right] = size[split] - n_left[split]
        depth[kids] = np.repeat(depth[parent] + 1, 2)
        tree[kids] = np.repeat(trees_split, 2)
        todo = add(kids, kid_constant[split].ravel())
        # Push the right child, then the left, so that the left pops first.
        for side, push in ((right, todo[1::2]), (left, todo[::2])):
            t = trees_split[push]
            stack[t, top[t]] = side[push]
            top[t] += 1
        trees = trees[top[trees] > 0]
        top[trees] -= 1
        nodes = stack[trees, top[trees]]
    leaves = np.flatnonzero(feature[:count] < 0)
    value = np.empty(count)
    value[leaves] = _leaf_values(yp, buf, start[leaves], n[leaves])
    return _Records(feature[:count], threshold[:count], decrease[:count],
                    n[:count], child[:count], value, tree[:count])


def _build_trees(rec: _Records, first: int, stop: int) -> list[TreeNode]:
    """Trees `first` to ``stop - 1`` of `rec` as `Leaf` and `Internal`
    objects, built children first, one block of records turned into Python
    values at a time."""
    ids = np.flatnonzero((rec.tree >= first) & (rec.tree < stop))
    built: list = [None] * rec.tree.size
    for hi in range(ids.size, 0, -_BUILD_BLOCK):
        block = ids[max(hi - _BUILD_BLOCK, 0):hi][::-1]
        for i, f, th, dec, rows_n, c, v in zip(block.tolist(), *(
            col[block].tolist() for col in (
                rec.feature, rec.threshold, rec.decrease, rec.n, rec.child,
                rec.value))):
            built[i] = Leaf(value=v, n=rows_n) if f < 0 else Internal(
                feature=f, threshold=th, decrease=dec, n=rows_n,
                left=built[c], right=built[c + 1])
    return built[first:stop]


def _route_records(rec: _Records, X, rows, nodes) -> np.ndarray:
    """Value of the leaf that row ``X[rows[i]]`` reaches from node
    ``nodes[i]`` of `rec`, as `_route` walks a built tree (<= goes left).
    Every pair steps one depth down per array step."""
    nodes = np.array(nodes, dtype=np.intp)
    live = np.flatnonzero(rec.feature[nodes] >= 0)
    while live.size:
        at = nodes[live]
        goes_right = ~(X[rows[live], rec.feature[at]] <= rec.threshold[at])
        nodes[live] = rec.child[at] + goes_right
        live = live[rec.feature[nodes[live]] >= 0]
    return rec.value[nodes]


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
