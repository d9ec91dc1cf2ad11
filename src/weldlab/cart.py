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
from typing import NamedTuple, Sequence, Union

import numpy as np

from ._rng import lane_skip_subsets, lane_subsets
from .dataset import Dataset, _check_fields, _integer, _real, _sequential_sum
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
        parent = Counter(lab for g in groups for lab in g)
        children = [Counter(g) for g in groups]
        keys = sorted(parent)
        return cls(
            parent=ClassDistribution(counts=tuple(parent[k] for k in keys)),
            children=tuple(ClassDistribution(counts=tuple(c[k] for k in keys))
                           for c in children),
        )


def entropy(dist: ClassDistribution) -> float:
    """-sum(p * log2 p) in bits, with 0*log2(0) = 0."""
    return -_sequential_sum(p * math.log2(p) for p in dist.frequencies if p > 0.0)


def information_gain(split: SplitPartition) -> float:
    """Parent entropy minus size-weighted child entropies."""
    return entropy(split.parent) - _sequential_sum(
        w * entropy(c) for w, c in zip(split.weights, split.children)
    )


def split_info(split: SplitPartition) -> float:
    """-sum(w * log2 w) over child weights (zero-size children contribute 0)."""
    return -_sequential_sum(w * math.log2(w) for w in split.weights if w > 0.0)


def gain_ratio(split: SplitPartition) -> float:
    """information_gain / split_info; undefined for a single-child partition."""
    si = split_info(split)
    if si == 0.0:
        raise ValueError("gain ratio undefined: split has a single non-empty child")
    return information_gain(split) / si


def gini_impurity(dist: ClassDistribution) -> float:
    """1 - sum(p^2)."""
    return 1.0 - _sequential_sum(p * p for p in dist.frequencies)


# --- regression tree ------------------------------------------------------


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 0  # 0 = unlimited
    min_samples_leaf: int = 1
    # least split `decrease` (see `_is_leaf`): the variance decrease, or
    # the penalized gain / n in gbm stages grown under lam > 0
    min_impurity_decrease: float = 0.0

    def __post_init__(self):
        _check_fields(self, _integer, ("max_depth", "min_samples_leaf"))
        _check_fields(self, _real, ("min_impurity_decrease",))
        if self.max_depth < 0 or self.min_samples_leaf < 1:
            raise ValueError("max_depth must be >= 0 and min_samples_leaf >= 1")
        if not self.min_impurity_decrease >= 0.0:
            raise ValueError("min_impurity_decrease must be >= 0")


class Leaf(NamedTuple):
    value: float  # mean response of its samples; sum / (n + lam) under lam
    n: int


class Internal(NamedTuple):
    feature: int
    threshold: float
    decrease: float  # SSE decrease of this split / n (penalized under lam)
    n: int
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Internal]


def _is_leaf(cfg, n, depth, constant, feat=0, decrease=np.inf):
    """CART's leaf rules, on scalars or elementwise over arrays.

    A node of `n` rows at `depth` is a leaf when it has fewer than
    2 * min_samples_leaf rows, reaches max_depth, or has a `constant`
    response; once scored, also when its best split has feature -1 (none
    admissible) or a `decrease` <= 0 or below min_impurity_decrease.  The
    decrease is the split's SSE decrease / n: the variance decrease, or
    under a gbm leaf penalty lam > 0 the penalized gain / n (see
    `_best_split_loops`).  The defaults stand for a node not yet scored.

    A node whose rows all share one feature row has no admissible split,
    as every cut ties: `_grow_forests` settles such a node as a leaf of
    feature -1 without scoring it, once it passes the rules above.
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
    *,
    rows: Sequence[int] | None = None,
    memo: dict | None = None,
) -> TreeNode:
    """Recursive binary splitting of (X, y) by variance reduction, every
    node searching every feature.  `X` and `y` must be finite.  The tree is
    grown by one `_grow` call on lists of `X` and `y`; trees whose nodes
    search a feature subset grow only in `_grow_forests`, on lanes.

    `rows` lists the training-row ids of `X` the tree grows on, in order and
    with repeats (a bootstrap sample); the default is every row once.  The
    tree equals ``build_tree(X[rows], y[rows], ...)``.

    `memo` is a read-only table from the key of each root of one
    `_grow_forests` pass over the same `X`, `y` and `cfg` to its tree: a
    tree whose `rows` it keys is read from it, and any other grown as
    without it.  A hit skips the range and finite checks: its key is the
    row ids of a root of a pass over this `X`, in range and checked.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (n, p) and y (n,) with matching n")
    if X.shape[1] == 0:
        raise ValueError("X has no feature columns to split on")
    if y.shape[0] == 0:
        raise ValueError("cannot fit a tree on an empty dataset")
    if rows is None:
        rows = np.arange(y.shape[0], dtype=np.intp)
    else:
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu":
            raise ValueError(
                "rows must be a non-empty 1-d sequence of integer row ids"
            )
        rows = rows.astype(np.intp, copy=False)
    if memo is not None:
        # The pass's key of a root: its row ids, then depth 0 under a limit.
        tree = memo.get(
            (np.append(rows, 0) if cfg.max_depth else rows).tobytes())
        if tree is not None:  # grown from ids and data already checked
            return tree
    # A negative id reads as a huge unsigned one.
    if rows.view(np.uintp).max() >= y.shape[0]:
        raise ValueError(f"row ids must be in [0, {y.shape[0]})")
    # A NaN or inf can make a threshold that sends every row one way.
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("X and y must be finite")
    return _grow(X.tolist(), y.tolist(), rows.tolist(), 0, cfg)


def _grow(Xl, yl, idx, depth, cfg, lam=0.0) -> TreeNode:
    """The tree grown at `depth` from the rows `idx`, ids into the lists
    `Xl` (feature rows) and `yl` (responses), unchecked: the one single-tree
    grower, for gbm stages and the CART tree.  Preorder, each node searching
    every feature.  Under an L2 leaf penalty `lam` a leaf is valued sum(ys)
    / (n + lam), and splits are scored on the penalized SSE (see
    `_best_split_loops`); at `lam` 0 these are the mean and CART's variance
    split.
    """
    n = len(idx)
    ys = [yl[i] for i in idx]
    if not _is_leaf(cfg, n, depth, min(ys) == max(ys)):
        feat, thr, children_sse, parent_sse = _best_split_loops(
            [Xl[i] for i in idx], ys, range(len(Xl[idx[0]])),
            cfg.min_samples_leaf, lam)
        decrease = (parent_sse - children_sse) / n
        if not _is_leaf(cfg, n, depth, False, feat, decrease):
            left = [i for i in idx if Xl[i][feat] <= thr]
            right = [i for i in idx if not Xl[i][feat] <= thr]
            return Internal(feat, thr, decrease, n,
                            _grow(Xl, yl, left, depth + 1, cfg, lam),
                            _grow(Xl, yl, right, depth + 1, cfg, lam))
    # numpy's pairwise sum, as `y[idx].mean()` takes: Python's `sum` adds
    # in sequence, which rounds differently from 8 rows up.
    return Leaf(float(np.add.reduce(ys) / (n + lam)), n)


# --- batched growth -------------------------------------------------------
# Padded rows (nodes x the largest node's rows) of one `best_splits` call:
# about a default forest's 200 roots of 9 runs, so calls stay few and small.
_CALL_ROWS = 2048
# Node records that `_build_trees` turns into Python values at a time.
_BUILD_BLOCK = 256


def _setting_codes(X):
    """One float code per row of `X`, equal for two rows exactly when all
    their features are equal as floats, as the kernel's tie test compares
    them, from one lexsort of X's columns; None when no two rows are equal.
    """
    order = np.lexsort(X.T)
    Xs = X[order]
    new = (Xs[1:] != Xs[:-1]).any(axis=1)
    if new.all():
        return None
    codes = np.empty(X.shape[0])
    codes[order] = np.cumsum(np.append(0.0, new))
    return codes


def _padded(X, y):
    """X as float64 with the pad row, id ``len(y)``, appended, and the rows
    of values per row id whose constancy over a node `_grow_forests` tests:
    y with the pad row's 0, and below it, when two rows of X share a
    setting, their `_setting_codes` with one of the pad row's own.

    The batched growers score nodes of mixed sizes in one `best_splits`
    call, each padded on the right to the largest with the pad row: X =
    +inf, which a stable sort puts last, and y = 0.  `best_splits` reads
    each node's totals at its last real row and masks every cut past it,
    so each node equals `best_split` on its own rows, bit for bit.
    """
    Xp = np.vstack((X, np.full((1, X.shape[1]), np.inf)))
    yp = np.append(y, 0.0)
    codes = _setting_codes(X)
    if codes is None:
        return Xp, yp[None]
    return Xp, np.vstack((yp, np.append(codes, -1.0)))


def _all_equal(ys, mask):
    """Per row of each (nodes, cells) block of `ys`: do its values under
    `mask` all equal?"""
    return (np.where(mask, ys, np.inf).min(axis=-1)
            == np.where(mask, ys, -np.inf).max(axis=-1))


def _gather(pad, buf, start, size):
    """The row ids ``buf[start[i]:start[i] + size[i]]`` of each node i as
    rows of one array padded to the largest with the pad row id `pad`: each
    cell's position in `buf`, the mask of real cells, and the row ids."""
    ar = np.arange(size.max())
    at = start[:, None] + ar
    real = ar < size[:, None]
    # Positions past a node's slice (they may pass the buffer's end) read
    # the pad row instead.
    return at, real, np.where(real, buf.take(at, mode="clip"), pad)


def _roots(yc, roots):
    """One buffer of the row ids of every root in `roots`, a list of
    (roots x n) blocks of row ids, each root's start and size in it, and
    whether each row of `yc` (see `_padded`) is constant over each root.  A
    1-d array is a block of one root."""
    roots = [np.atleast_2d(np.asarray(block, dtype=np.intp)) for block in roots]
    size = np.concatenate([np.full(len(block), block.shape[1], np.intp)
                           for block in roots])
    buf = np.concatenate([block.ravel() for block in roots])
    start = np.cumsum(size) - size
    _, real, rows = _gather(yc.shape[1] - 1, buf, start, size)
    return buf, start, size, _all_equal(yc.take(rows, axis=1), real)


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


def _split(Xp, yc, buf, start, size, features, cfg: TreeConfig):
    """Score each node i, whose row ids are ``buf[start[i]:start[i] +
    size[i]]`` and which passed the pre-score leaf rules, over the ascending
    feature row ``features[i]``; `Xp` and `yc` are `_padded`'s.

    The nodes are scored by falling size in `best_splits` calls of at most
    `_CALL_ROWS` padded rows.  A node that a post-score leaf rule makes a
    leaf keeps its slice as it was; a split node's slice is stably
    partitioned in place, its rows <= the threshold first.  Returns, per
    node in the given order, its feature (-1 for a leaf), threshold,
    decrease and left size, and ``constant[r, side, i]``: whether row r of
    `yc` (the response, then any setting code) is constant over node i's
    child `side` (0 left, 1 right).
    """
    feat = np.empty(size.size, np.int64)
    thr = np.empty(size.size)
    decrease = np.empty(size.size)
    n_left = np.empty(size.size, np.intp)
    constant = np.empty((len(yc), 2, size.size), bool)
    by_size = np.argsort(-size, kind="stable")
    for i, j in _calls(size[by_size]):
        ids = by_size[i:j]
        n = size[ids]
        at, real, rows = _gather(yc.shape[1] - 1, buf, start[ids], n)
        B, width = rows.shape
        Xb = Xp.take(rows, axis=0)
        f, t, children_sse, parent_sse = best_splits(
            Xb, yc[0].take(rows), features[ids], cfg.min_samples_leaf, n)
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
        ys = yc.take(parted, axis=1)
        feat[ids] = np.where(leaf, -1, f)
        thr[ids], decrease[ids], n_left[ids] = t, dec, nl
        constant[:, 0, ids] = _all_equal(ys, in_left)
        constant[:, 1, ids] = _all_equal(ys, ~in_left & real)
    return feat, thr, decrease, n_left, constant


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
    """Flat node records of the trees `_grow_forests` grows.

    Node i is a leaf of value ``value[i]`` when ``feature[i]`` is -1;
    otherwise it splits on ``X[:, feature[i]] <= threshold[i]`` into the
    nodes ``child[i, 0]`` (left) and ``child[i, 1]`` (right), each of fewer
    rows than node i.  Tree ``tree[i]`` made node i; a keyed node may also
    be a node of other trees.  `n` and `decrease` are those of the built
    node; `threshold`, `decrease` and `child` mean nothing on a leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    decrease: np.ndarray
    n: np.ndarray
    child: np.ndarray
    value: np.ndarray
    tree: np.ndarray


# The columns of the node records that `_grow_forests` keeps as it runs:
# each node's slice of the row-id buffer and its depth, then the fields of
# `_Records` but `value`.  The columns that no numpy call of the pass takes
# as indices or sizes are 32-bit, which lowers a default rf stage's peak
# heap by ~4%; 32-bit `start`, `n` and `tree` cost more in conversions.
_COLUMNS = {"start": np.intp, "depth": np.int32, "feature": np.int32,
            "threshold": np.float64, "decrease": np.float64, "n": np.intp,
            "child": (np.int32, 2), "tree": np.intp}


def _key_ids(keys: dict, buf, start, size, depth, cfg: TreeConfig):
    """The id in `keys` of each node whose row ids are ``buf[start[i]:
    start[i] + size[i]]``, at ``depth[i]``, and whether it is new.

    A node's key is the bytes of its row ids, and of its depth too under a
    depth limit: for a root, `build_tree`'s memo key.  The nodes are keyed
    one size at a time, from a byte view of their (nodes, size) block of row
    ids.  A key not in `keys` takes the next id, ``len(keys)``, so a node
    is new when its id exceeds every id before it, in `keys` or the call.
    """
    setdefault, count, got = keys.setdefault, len(keys), []
    for s, group in _by_size(size):
        block = buf.take(start[group][:, None] + np.arange(s))
        if cfg.max_depth:
            block = np.hstack((block, depth[group][:, None]))
        got += [setdefault(key, len(keys)) for key in block.view(
            (np.void, block.itemsize * block.shape[1])).ravel().tolist()]
    got = np.array(got, np.intp)
    order = np.argsort(size, kind="stable")  # `_by_size`'s node order
    ids, new = np.empty_like(got), np.empty(got.size, bool)
    ids[order] = got
    new[order] = got > np.maximum.accumulate(np.append(count - 1, got))[:-1]
    return ids, new


def _grow_forests(X, y, roots, cfg: TreeConfig, lanes=None, m: int = 0):
    """The records of the tree of every root in `roots` (row-id blocks, see
    `_roots`), all grown in one pass of rounds, the key of each distinct
    root in record id order (none with `lanes`), and each root's record id.

    Without `lanes` every node searches every feature and a round scores
    every waiting node: the trees grow level by level.  Nodes are keyed
    (`_key_ids`), the roots first, so the R distinct roots are records 0 to
    R - 1, and a node whose key is known links to that record, even while
    it grows: the trees of the pass share their common nodes, and the
    records form a DAG.

    With `lanes`, a ``uint64`` array of SplitMix64 states (see `_rng`), one
    per tree, advanced in place, each node searches `m` features drawn
    from its tree's lane (`lane_subsets`).  Root t is record t.  Each tree
    visits its nodes in preorder from its own stack, so its lane makes its
    draws in the order of a preorder recursion that draws each node's
    subset from one stream seeded ``lanes[t]``: the tree equals that
    recursion's, and lane t ends where its stream ends.  A round pops one
    node per tree and draws all their subsets at once.

    A node's row ids are a slice of one buffer of every root's ids.  A node
    that a pre-score leaf rule makes a leaf draws nothing and never waits.
    A node that passes those rules but whose rows all share one setting of
    X (one `_setting_codes` code, tested only when two rows of X share one)
    has no admissible split: it is settled as a leaf of feature -1 and never
    scored.  With lanes it still waits on its tree's stack, marked by that
    -1, because the recursion draws its subset; popped, it makes those
    draws (`lane_skip_subsets`) and its tree pops again.  `_split` scores a
    round's nodes and partitions each split node's slice in place, left
    rows first, into its children's.  No slice changes once its node is a
    leaf, so one `_leaf_values` call values every leaf at the end.
    """
    Xp, yc = _padded(X, y)
    buf, start, size, constant = _roots(yc, roots)
    T, p = size.size, X.shape[1]
    keys: dict = {}
    # Grown as needed, by half at least.
    store = {name: np.empty(T, dtype) for name, dtype in _COLUMNS.items()}
    count = 0

    def add(at, rows_n, depth, constant, tree):
        """Record each new node of the nodes at ``buf[at[i]:at[i] +
        rows_n[i]]``, of depth ``depth[i]`` in tree ``tree[i]``, whose rows
        of `yc` are constant as ``constant[:, i]`` says; return each node's
        id and whether it is new and waits: not a leaf by the pre-score
        rules, and with lanes or else unsettled."""
        nonlocal store, count
        if lanes is None:
            ids, new = _key_ids(keys, buf, at, rows_n, depth, cfg)
        else:  # every node is new
            ids, new = np.arange(count, count + at.size), slice(None)
        fresh = ids[new]
        count += fresh.size
        cap = len(store["n"])
        if count > cap:
            store = {name: np.concatenate((store[name], np.empty(
                max(count - cap, cap // 2), dtype)))
                for name, dtype in _COLUMNS.items()}
        rows_n, depth, constant = rows_n[new], depth[new], constant[:, new]
        for name, value in (("start", at[new]), ("n", rows_n),
                            ("depth", depth), ("tree", tree[new])):
            store[name][fresh] = value
        leaf = _is_leaf(cfg, rows_n, depth, constant[0])
        settled = leaf | constant[1] if len(constant) > 1 else leaf
        store["feature"][fresh] = np.where(settled, -1, 0)
        todo = np.zeros(ids.size, bool)
        todo[new] = ~leaf if lanes is not None else ~settled
        return ids, todo

    def push(nodes):
        """Push each node onto its tree's stack, one node per tree."""
        t = store["tree"][nodes]
        stack[t, top[t]] = nodes
        top[t] += 1

    def pop(trees):
        """The node each tree in `trees` scores next: the top of its stack,
        once every settled node above it has made its draws."""
        got = []
        while True:
            trees = trees[top[trees] > 0]
            top[trees] -= 1
            nodes = stack[trees, top[trees]]
            settled = store["feature"][nodes] < 0
            got.append(nodes[~settled])
            trees = trees[settled]
            if not trees.size:
                return np.concatenate(got)
            lane_skip_subsets(lanes, trees, p, m)

    root_ids, todo = add(start, size, np.zeros(T, np.intp), constant, np.arange(T))
    n_roots = len(keys)
    nodes = root_ids[todo]  # this round's nodes to score
    if lanes is not None:
        # Each tree's stack of the nodes it has yet to visit, which are at
        # most one per depth below the root, plus the two just pushed.
        stack = np.empty((T, size.max() + 2), np.intp)
        top = np.zeros(T, np.intp)
        push(nodes)
        nodes = pop(np.arange(T))
    while nodes.size:
        at, n, tree = (store[name][nodes] for name in ("start", "n", "tree"))
        feat, thr, dec, n_left, kid_constant = _split(
            Xp, yc, buf, at, n,
            np.broadcast_to(np.arange(p), (nodes.size, p)) if lanes is None
            else lane_subsets(lanes, tree, p, m), cfg)
        store["feature"][nodes] = feat
        store["threshold"][nodes] = thr
        store["decrease"][nodes] = dec
        split = feat >= 0
        parent, n_left = nodes[split], n_left[split]
        # The splits' children in their slices: every left one, then every
        # right one.
        depth, owner = store["depth"][parent] + 1, tree[split]
        kids, todo = add(
            np.concatenate((at[split], at[split] + n_left)),
            np.concatenate((n_left, n[split] - n_left)),
            np.concatenate((depth, depth)),
            kid_constant[:, :, split].reshape(len(yc), -1),
            np.concatenate((owner, owner)))
        store["child"][parent] = kids.reshape(2, -1).T
        if lanes is None:
            nodes = kids[todo]
            continue
        # The right children first, so that the left ones pop first.
        push(kids[parent.size:][todo[parent.size:]])
        push(kids[:parent.size][todo[:parent.size]])
        nodes = pop(tree)
    store = {name: col[:count] for name, col in store.items()}
    leaves = np.flatnonzero(store["feature"] < 0)
    store["value"] = np.empty(count)
    store["value"][leaves] = _leaf_values(yc[0], buf, store["start"][leaves],
                                          store["n"][leaves])
    return (_Records(*(store[name] for name in _Records._fields)),
            list(keys)[:n_roots], root_ids)


def _build_trees(rec: _Records, ids) -> list:
    """By record id, the tree of each record in `ids` as `Leaf` and
    `Internal` objects, and None for every other record; `ids` must hold
    both children of each of its splits.  The leaves are built first, then
    the splits by ascending `n`, so children before parents (a child has
    fewer rows than its parent), one block turned into Python values at a
    time."""
    built: list = [None] * rec.n.size
    leaf = rec.feature[ids] < 0
    leaves, splits = ids[leaf], ids[~leaf]
    for i, value, n in zip(leaves.tolist(), rec.value[leaves].tolist(),
                           rec.n[leaves].tolist()):
        built[i] = Leaf(value, n)
    splits = splits[np.argsort(rec.n[splits], kind="stable")]
    for lo in range(0, splits.size, _BUILD_BLOCK):
        block = splits[lo:lo + _BUILD_BLOCK]
        for i, f, t, dec, n, left, right in zip(block.tolist(), *(
                col[block].tolist() for col in (
                    rec.feature, rec.threshold, rec.decrease, rec.n,
                    rec.child[:, 0], rec.child[:, 1]))):
            built[i] = Internal(f, t, dec, n, built[left], built[right])
    return built


def _route_records(rec: _Records, X, rows, nodes) -> np.ndarray:
    """Value of the leaf that row ``X[rows[i]]`` reaches from node
    ``nodes[i]`` of `rec`, as `_route` walks a built tree (<= goes left).
    Every pair steps one depth down per array step."""
    nodes = np.array(nodes, dtype=np.intp)
    live = np.flatnonzero(rec.feature[nodes] >= 0)
    while live.size:
        at = nodes[live]
        goes_right = ~(X[rows[live], rec.feature[at]] <= rec.threshold[at])
        nodes[live] = rec.child[at, goes_right.astype(np.intp)]
        live = live[rec.feature[nodes[live]] >= 0]
    return rec.value[nodes]


def fit_regression_tree(d: Dataset, cfg: TreeConfig = TreeConfig()) -> TreeNode:
    """CART regression tree over a dataset's factors, response = hardness."""
    return build_tree(d.features(), d.responses(), cfg)


def _preorder(t: TreeNode):
    """Each node of the tree `t` with its depth, root first and each left
    subtree before its right: the one walk of whole built trees."""
    stack = [(t, 0)]
    while stack:
        item = stack.pop()
        yield item
        node, depth = item
        if isinstance(node, Internal):
            stack += ((node.right, depth + 1), (node.left, depth + 1))


def tree_arity(t: TreeNode) -> int:
    """Highest feature index referenced, +1 (0 for a bare leaf)."""
    return max((node.feature + 1 for node, _ in _preorder(t)
                if isinstance(node, Internal)), default=0)


def _route(t: TreeNode, x) -> float:
    """Leaf mean reached by `x` (<= goes left), with no bounds check."""
    while isinstance(t, Internal):
        t = t.left if x[t.feature] <= t.threshold else t.right
    return t.value


def predict_tree(t: TreeNode, x: Sequence[float]) -> float:
    """Route by threshold comparisons (<= goes left); return the leaf mean.

    Each call checks that `x` is finite (a NaN would go right at every split)
    and walks the whole tree to check it against every feature index it
    references.  Ensembles validate once per model instead, not once per tree
    call: `predict_ensemble` checks the vector length against the model's
    feature count, and `model_from_json` checks every split feature at load.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("x must be a single feature vector")
    row = [_real(v, f"feature {i}") for i, v in enumerate(x.tolist())]
    arity = tree_arity(t)
    if arity > x.shape[0]:
        raise ValueError(
            f"feature vector has {x.shape[0]} entries but the tree "
            f"references feature index {arity - 1}"
        )
    return _route(t, row)


def count_nodes(t: TreeNode) -> tuple[int, int]:
    """(internal count, leaf count): every split has two children."""
    splits = sum(isinstance(node, Internal) for node, _ in _preorder(t))
    return splits, splits + 1


_FMT = "%.6g"


def _node_label(t: TreeNode, feature_names: Sequence[str] | None) -> str:
    if isinstance(t, Leaf):
        return f"leaf: value={_FMT % t.value} (n={t.n})"
    name = f"x{t.feature}" if feature_names is None else feature_names[t.feature]
    return f"{name} <= {_FMT % t.threshold}"


def export_tree(
    t: TreeNode,
    format: str = "text",
    feature_names: Sequence[str] | None = None,
) -> str:
    """Render the tree: 'text' is an indented rule list, 'graph' a DOT
    digraph.  Ordering is deterministic (left before right)."""
    if feature_names is not None and len(feature_names) < tree_arity(t):
        raise ValueError(f"the tree's arity is {tree_arity(t)}, but "
                         f"feature_names has {len(feature_names)}")
    if format == "text":
        return "".join("  " * depth + _node_label(node, feature_names) + "\n"
                       for node, depth in _preorder(t))

    if format == "graph":
        # A split's edges follow its whole subtree, so this walk is its own.
        lines = ["digraph tree {"]
        counter = [0]

        def walk_g(node: TreeNode) -> int:
            nid = counter[0]
            counter[0] += 1
            label = _node_label(node, feature_names)
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{nid} [label="{label}"];')
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
