"""Best-split search kernel, the hot inner loop of every tree fit.

``best_split`` scores a node in one prefix-sum pass over its
``(features x rows)`` block: a stable argsort of every candidate column at
once, one sequential ``np.add.accumulate`` over the sorted ``[y, y^2]``
rows, the clamped SSE expression, and one masked argmin over the whole
block.  ``_best_split_loops`` is the same search written as plain loops;
it performs the same floating-point operations in the same order (stable
sort, sequential prefix sums, identical score expression), and the test
suite checks ``best_split`` against it bit for bit.  ``best_splits`` scores
a batch of same-size nodes with the same steps along each node's own axis,
so every node's result equals ``best_split`` on that node alone.

Split contract: candidate thresholds are midpoints between consecutive
distinct sorted values, comparison is ``<=`` (left), the score is the
summed child SSE, and ties resolve to the lowest feature index then the
lowest threshold.  Each child SSE clamps at zero (the prefix-sum form can
go an ulp negative on pure children, which would otherwise let roundoff
decide ties).  A feature index of -1 means no admissible split.
"""

from __future__ import annotations

import numpy as np


def _best_split_loops(X, y, features, min_leaf):
    n = y.shape[0]
    s_tot = 0.0
    ss_tot = 0.0
    for i in range(n):
        v = y[i]
        s_tot += v
        ss_tot += v * v
    parent_sse = ss_tot - s_tot * s_tot / n

    best_f = -1
    best_t = 0.0
    best_score = np.inf
    for jj in range(features.shape[0]):
        j = features[jj]
        col = np.empty(n, dtype=np.float64)
        for i in range(n):
            col[i] = X[i, j]
        order = np.argsort(col, kind="mergesort")

        tot_s = 0.0
        tot_ss = 0.0
        for i in range(n):
            v = y[order[i]]
            tot_s += v
            tot_ss += v * v

        sl = 0.0
        ssl = 0.0
        for i in range(n - 1):
            v = y[order[i]]
            sl += v
            ssl += v * v
            xi = col[order[i]]
            xnext = col[order[i + 1]]
            if xi == xnext:
                continue
            nl = i + 1
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            sse_l = ssl - sl * sl / nl
            if sse_l < 0.0:
                sse_l = 0.0
            sse_r = (tot_ss - ssl) - (tot_s - sl) * (tot_s - sl) / nr
            if sse_r < 0.0:
                sse_r = 0.0
            score = sse_l + sse_r
            if score < best_score:
                best_score = score
                best_f = j
                best_t = (xi + xnext) / 2
    return best_f, best_t, best_score, parent_sse


def _cut_sse(c, xs, min_leaf):
    """Children SSE of every cut, for one node or a batch of nodes.

    `c` holds (..., 2k + 2, n) running sums along the last axis: the
    node's y as given, y in each of the k candidate features' sort order,
    then the squares of both; xs (..., k, n) holds the sorted columns.  Cut
    i of a feature puts its first i + 1 sorted rows left; it scores inf
    where its two boundary values tie or a child would have fewer than
    `min_leaf` rows.  Each child SSE clamps at zero.
    """
    k, n = xs.shape[-2:]
    nl = np.arange(1, n)
    nr = n - nl
    sl = c[..., 1 : k + 1, :-1]
    ssl = c[..., k + 2 :, :-1]
    sr = c[..., 1 : k + 1, -1:] - sl
    score = np.maximum(ssl - sl * sl / nl, 0.0) + np.maximum(
        (c[..., k + 2 :, -1:] - ssl) - sr * sr / nr, 0.0
    )
    score[xs[..., :-1] == xs[..., 1:]] = np.inf
    if min_leaf > 1:
        score[..., : min_leaf - 1] = np.inf
        score[..., max(n - min_leaf, 0) :] = np.inf
    return score


def best_split(X, y, features, min_leaf=1):
    """Find the best variance-reduction split of (X, y) over `features`.

    X must be C-contiguous float64 (n, p), y float64 (n,), features an
    ascending int64 array of candidate column indices.  Returns
    (feature, threshold, children_sse, parent_sse); feature is -1 when no
    split satisfies the distinct-boundary and min_leaf constraints.
    """
    n = y.shape[0]
    k = features.shape[0]
    cols = X.T[features]  # (k, n): one row per candidate feature
    order = cols.argsort(axis=1, kind="stable")
    xs = np.sort(cols, axis=1, kind="stable")  # == cols gathered by order
    # Row 0 is y as given (the parent sums); rows 1..k are y in each
    # feature's order; the second half holds the squares.  accumulate is a
    # sequential reduction along each row, matching the reference loop bitwise.
    ys = np.concatenate((y[None], y[order]))
    c = np.add.accumulate(np.concatenate((ys, ys * ys)), axis=1)
    s_tot = c[0, -1]
    ss_tot = c[k + 1, -1]
    parent_sse = float(ss_tot - s_tot * s_tot / n)
    if n < 2 or k == 0:
        return -1, 0.0, np.inf, parent_sse

    score = _cut_sse(c, xs, min_leaf)
    # Row-major flat argmin: lowest feature first, then lowest threshold.
    fi, i = divmod(int(score.argmin()), n - 1)
    best_score = float(score[fi, i])
    if not best_score < np.inf:
        return -1, 0.0, np.inf, parent_sse
    best_t = float((xs[fi, i] + xs[fi, i + 1]) / 2)
    return int(features[fi]), best_t, best_score, parent_sse


def best_splits(Xb, yb, features, min_leaf=1):
    """`best_split` of B nodes of n rows each, scored in one pass.

    Xb is (B, n, p) float64 and yb (B, n) float64.  `features` is either
    one ascending int64 array of k column indices that every node searches,
    as for `best_split`, or a (B, k) array whose row b is node b's own
    ascending subset.  Returns four (B,) arrays: feature (int64, -1 where no
    split is admissible), threshold, children SSE and parent SSE; entry b
    equals ``best_split(Xb[b], yb[b], features[b], min_leaf)`` (or
    ``features`` for a shared subset).  Every step is the per-node one
    applied along each node's own last axis (a stable argsort, sequential
    running sums, `_cut_sse`, a row-major argmin per node), so no value of
    one node enters another's sums.
    """
    B, n = yb.shape
    k = features.shape[-1]
    node = np.arange(B)
    if features.ndim == 1:
        cols = Xb.transpose(0, 2, 1)[:, features]  # (B, k, n)
    else:
        cols = Xb.transpose(0, 2, 1)[node[:, None], features]
    order = cols.argsort(axis=-1, kind="stable")
    xs = np.take_along_axis(cols, order, axis=-1)
    ys = np.concatenate((yb[:, None], yb[node[:, None, None], order]), axis=1)
    c = np.add.accumulate(np.concatenate((ys, ys * ys), axis=1), axis=-1)
    s_tot = c[:, 0, -1]
    parent_sse = c[:, k + 1, -1] - s_tot * s_tot / n
    if n < 2 or k == 0:
        return np.full(B, -1), np.zeros(B), np.full(B, np.inf), parent_sse

    flat = _cut_sse(c, xs, min_leaf).reshape(B, -1)
    best = flat.argmin(axis=1)
    best_score = flat[node, best]
    fi, i = np.divmod(best, n - 1)
    ok = best_score < np.inf
    best_t = (xs[node, fi, i] + xs[node, fi, i + 1]) / 2
    chosen = features[fi] if features.ndim == 1 else features[node, fi]
    return (
        np.where(ok, chosen, -1),
        np.where(ok, best_t, 0.0),
        np.where(ok, best_score, np.inf),
        parent_sse,
    )


def active_backend() -> str:
    """Name of the split kernel, reported in run metadata."""
    return "numpy"
