"""Best-split search kernels, the hot inner loop of every tree fit.

``_best_split_loops`` scores one node in plain Python over row-major
sequences (lists, or numpy arrays): per candidate feature, a stable
``sorted`` order of the rows, sequential running sums of y and y^2, and
the clamped SSE expression at every cut, keeping the first minimum by a
strict ``<`` over features and then cuts.  It is the single-tree
recursion's kernel, called on Python lists, and the reference the test
suite holds ``best_splits`` to; ``best_split`` is the same loop on numpy
arrays.  ``best_splits`` scores a batch of nodes, padded on the right to
the largest and each with its own row of candidate features, in one numpy
pass with the same steps along each node's own axis (a stable argsort, a
sequential ``np.add.accumulate``, the same expression, a row-major
argmin): pads sort last, no sum that is read includes one, and every
node's result equals ``best_split`` on that node alone, bit for bit.

Split contract: candidate thresholds are midpoints between consecutive
distinct sorted values, comparison is ``<=`` (left), the score is the
summed child SSE, and ties resolve to the lowest feature index then the
lowest threshold.  Each child SSE clamps at zero (the prefix-sum form can
go an ulp negative on pure children, which would otherwise let roundoff
decide ties).  A feature index of -1 means no admissible split.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np


def _best_split_loops(X, y, features, min_leaf, lam=0.0):
    """Best split of the node whose rows are `X` (X[i][j] is feature j of
    row i) and responses `y`, over the ascending column indices
    `features`: (feature, threshold, children SSE, parent SSE).

    Under an L2 leaf penalty `lam` each SSE is the penalized one,
    ``sum(y^2) - sum(y)^2 / (count + lam)``: the SSE about the leaf value
    ``sum(y) / (count + lam)`` plus lam times its square.  Parent minus
    children is then twice XGBoost's split gain for squared loss."""
    n = len(y)
    s_tot = 0.0
    ss_tot = 0.0
    for v in y:
        s_tot += v
        ss_tot += v * v
    parent_sse = ss_tot - s_tot * s_tot / (n + lam)

    best_f = -1
    best_t = 0.0
    best_score = math.inf
    for j in features:
        col = [row[j] for row in X]
        order = sorted(range(n), key=col.__getitem__)
        xs = [col[i] for i in order]
        ys = [y[i] for i in order]
        # Running sums of y and y^2 in this order, one addition at a time.
        s = list(accumulate(ys))
        ss = list(accumulate([v * v for v in ys]))
        tot_s = s[-1]
        tot_ss = ss[-1]
        # Cut i puts rows order[:i + 1] left; both children keep min_leaf.
        for i in range(min_leaf - 1, n - min_leaf):
            if xs[i] == xs[i + 1]:
                continue
            nl = i + 1
            nr = n - nl
            sl = s[i]
            ssl = ss[i]
            sse_l = ssl - sl * sl / (nl + lam)
            if sse_l < 0.0:
                sse_l = 0.0
            sr = tot_s - sl
            sse_r = (tot_ss - ssl) - sr * sr / (nr + lam)
            if sse_r < 0.0:
                sse_r = 0.0
            score = sse_l + sse_r
            if score < best_score:
                best_score = score
                best_f = j
                best_t = (xs[i] + xs[nl]) / 2
    return best_f, best_t, best_score, parent_sse


def best_split(X, y, features, min_leaf=1):
    """Find the best variance-reduction split of (X, y) over `features`.

    X is float64 (n, p), y float64 (n,), features an ascending int64 array
    of candidate column indices.  Returns (feature, threshold,
    children_sse, parent_sse) as Python numbers from `_best_split_loops`
    on the arrays' values; feature is -1 when no split satisfies the
    distinct-boundary and min_leaf constraints.  No tree grower calls it.
    """
    return _best_split_loops(X.tolist(), y.tolist(), features.tolist(), min_leaf)


def best_splits(Xb, yb, features, min_leaf, sizes):
    """`best_split` of B nodes of 1 to n rows each, scored in one pass.

    Xb is (B, n, p) float64, yb (B, n) float64 and `features` a (B, k) int64
    array whose row b holds node b's ascending column indices (nodes that
    all search the same columns can share one read-only `np.broadcast_to`
    row).  Returns four (B,) arrays: feature (int64, -1 where no split is
    admissible), threshold, children SSE and parent SSE.  Every step is the
    per-node one applied along each node's own last axis (a stable argsort,
    sequential running sums, the clamped child-SSE expression at every cut,
    a row-major argmin per node), so no value of one node enters another's
    sums.

    `sizes`, a (B,) integer array, gives each node its row count: node b's
    real rows are its first ``sizes[b]``, and its rows past them are pads
    with X = +inf in every column and y = 0.  Real X values must be finite,
    so the stable sort puts the pads last and each running sum holds the
    node's own sums up to its last real row.  Totals are read there and
    every cut that would put a pad in a child is masked, so no pad's y
    enters a value that is read (the zeros keep the masked cuts finite).
    Entry b equals `best_split` on ``Xb[b, :sizes[b]]``, ``yb[b,
    :sizes[b]]`` and ``features[b]``, bit for bit.
    """
    B, n = yb.shape
    k = features.shape[1]
    node = np.arange(B)
    cols = Xb.transpose(0, 2, 1)[node[:, None], features]  # (B, k, n)
    order = cols.argsort(axis=-1, kind="stable")
    # cols[b, f, order[b, f]] and yb[b, order[b, f]] as flat gathers.
    row = node[:, None, None]
    xs = cols.take(order + n * (k * row + np.arange(k)[:, None]))
    ys = np.concatenate((yb[:, None], yb.take(order + n * row)), axis=1)
    # Running sums along the last axis of y as given, y in each feature's
    # sort order, then the squares of both: (B, 2k + 2, n).  Node b's
    # totals are at its last real row.
    c = np.add.accumulate(np.concatenate((ys, ys * ys), axis=1), axis=-1)
    tot = c[node, :, sizes - 1][..., None]
    parent_sse = tot[:, k + 1, 0] - tot[:, 0, 0] * tot[:, 0, 0] / sizes
    if n < 2 or k == 0:
        return np.full(B, -1), np.zeros(B), np.full(B, np.inf), parent_sse

    # Cut i of a feature puts its first i + 1 sorted rows left.  It scores
    # inf where its two boundary values tie, where a child would have
    # fewer than `min_leaf` rows, and at or past ``sizes[b] - min_leaf``,
    # so no cut read takes a pad.  Each child SSE clamps at zero.
    nl = np.arange(1, n)
    sl = c[:, 1 : k + 1, :-1]
    ssl = c[:, k + 2 :, :-1]
    # A masked cut may have no right rows: divide those by 1, not 0.
    nr = np.maximum(sizes[:, None, None] - nl, 1)
    sr = tot[:, 1 : k + 1] - sl
    score = np.maximum(ssl - sl * sl / nl, 0.0) + np.maximum(
        (tot[:, k + 2 :] - ssl) - sr * sr / nr, 0.0
    )
    score[xs[..., :-1] == xs[..., 1:]] = np.inf
    if min_leaf > 1:
        score[..., : min_leaf - 1] = np.inf
    np.copyto(score, np.inf, where=nl > (sizes - min_leaf)[:, None, None])
    flat = score.reshape(B, -1)
    best = flat.argmin(axis=1)
    best_score = flat[node, best]
    fi, i = np.divmod(best, n - 1)
    ok = best_score < np.inf
    best_t = (xs[node, fi, i] + xs[node, fi, i + 1]) / 2
    return (
        np.where(ok, features[node, fi], -1),
        np.where(ok, best_t, 0.0),
        np.where(ok, best_score, np.inf),
        parent_sse,
    )


def active_backend() -> str:
    """Name of the split kernel, reported in run metadata."""
    return "numpy"
