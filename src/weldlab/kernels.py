"""Best-split search kernel, the hot inner loop of every tree fit.

Two interchangeable backends:

* ``numba`` -- an ``@njit``-compiled scan (default when numba imports),
* ``numpy`` -- one prefix-sum pass over the node's ``(features x rows)``
  block: a stable argsort of every candidate column at once, one
  sequential ``np.add.accumulate`` over the sorted ``[y, y^2]`` rows, the
  clamped SSE expression, and one masked argmin over the whole block.

Set ``WELDLAB_NO_NUMBA=1`` in the environment to force the numpy path.
Both backends perform the same floating-point operations in the same
order (stable sort, sequential prefix sums, identical score expression),
so fitted trees are bit-identical either way; the test suite checks the
numpy backend against ``_best_split_loops`` (the numba source, run
uncompiled) and, when numba imports, against the compiled scan.

Split contract: candidate thresholds are midpoints between consecutive
distinct sorted values, comparison is ``<=`` (left), the score is the
summed child SSE, and ties resolve to the lowest feature index then the
lowest threshold.  Each child SSE clamps at zero (the prefix-sum form can
go an ulp negative on pure children, which would otherwise let roundoff
decide ties).  A feature index of -1 means no admissible split.
"""

from __future__ import annotations

import os

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


def best_split_numpy(X, y, features, min_leaf):
    """Vectorized backend; see module docstring for the contract."""
    n = y.shape[0]
    k = features.shape[0]
    cols = X.T[features]  # (k, n): one row per candidate feature
    order = cols.argsort(axis=1, kind="stable")
    xs = np.sort(cols, axis=1, kind="stable")  # == cols gathered by order
    # Row 0 is y as given (the parent sums); rows 1..k are y in each
    # feature's order; the second half holds the squares.  accumulate is a
    # sequential reduction along each row, matching the loop backend bitwise.
    ys = np.concatenate((y[None], y[order]))
    c = np.add.accumulate(np.concatenate((ys, ys * ys)), axis=1)
    s_tot = c[0, -1]
    ss_tot = c[k + 1, -1]
    parent_sse = float(ss_tot - s_tot * s_tot / n)
    if n < 2 or k == 0:
        return -1, 0.0, np.inf, parent_sse

    nl = np.arange(1, n)
    nr = n - nl
    sl = c[1 : k + 1, :-1]
    ssl = c[k + 2 :, :-1]
    sr = c[1 : k + 1, -1:] - sl
    score = np.maximum(ssl - sl * sl / nl, 0.0) + np.maximum(
        (c[k + 2 :, -1:] - ssl) - sr * sr / nr, 0.0
    )
    score[xs[:, :-1] == xs[:, 1:]] = np.inf
    if min_leaf > 1:
        score[:, : min_leaf - 1] = np.inf
        score[:, max(n - min_leaf, 0) :] = np.inf
    # Row-major flat argmin: lowest feature first, then lowest threshold.
    fi, i = divmod(int(score.argmin()), n - 1)
    best_score = float(score[fi, i])
    if not best_score < np.inf:
        return -1, 0.0, np.inf, parent_sse
    best_t = float((xs[fi, i] + xs[fi, i + 1]) / 2)
    return int(features[fi]), best_t, best_score, parent_sse


def _env_disables_numba() -> bool:
    return os.environ.get("WELDLAB_NO_NUMBA", "").strip().lower() in (
        "1",
        "true",
        "yes",
    )


try:
    from numba import njit

    best_split_numba = njit(cache=True, nogil=True)(_best_split_loops)
    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    best_split_numba = None
    HAS_NUMBA = False

_BACKENDS = {"numpy": best_split_numpy}
if HAS_NUMBA:
    _BACKENDS["numba"] = best_split_numba

BACKEND = "numpy" if (_env_disables_numba() or not HAS_NUMBA) else "numba"
_active = _BACKENDS[BACKEND]


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def active_backend() -> str:
    return BACKEND


def set_backend(name: str) -> None:
    """Switch the active backend (benchmarks/tests; results are identical)."""
    global BACKEND, _active
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; have {available_backends()}")
    BACKEND = name
    _active = _BACKENDS[name]


def best_split(X, y, features, min_leaf=1):
    """Find the best variance-reduction split of (X, y) over `features`.

    X must be C-contiguous float64 (n, p), y float64 (n,), features an
    ascending int64 array of candidate column indices.  Returns
    (feature, threshold, children_sse, parent_sse); feature is -1 when no
    split satisfies the distinct-boundary and min_leaf constraints.
    """
    return _active(X, y, features, min_leaf)
